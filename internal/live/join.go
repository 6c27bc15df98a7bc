package live

// This file is the verifiable admission path. A joining node's hash key
// is self-certifying (hashkey.IDKey): it is a hash of the node's public
// identity, region-striped for regional stationary nodes. The join
// carries the public key, the claimed region, and a signature over a
// canonical join statement; handleJoin recomputes the key from the
// public key alone and rejects any claim that doesn't hash to it. That
// makes the stationary/mobile split an enforced boundary — a client
// cannot squat the stationary arc, a region's stripes, or another node's
// key, because it cannot choose its key at all.
//
// Every rejection increments a dedicated counter (join.rejected.<why>)
// and the admission path obeys a conservation law the harness checks:
// join.requests = join.accepted + Σ join.rejected.*.

import (
	"crypto/sha256"
	"encoding/binary"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// joinStatement builds the canonical byte string a joiner signs: a
// domain tag, then every field of the claim (key, layer, region,
// address, epoch), each length-delimited or fixed-width so no two
// distinct claims serialize identically. Both sides construct it from
// the message fields, so there is nothing to parse — only to recompute.
func joinStatement(self wire.Entry, region string) []byte {
	b := make([]byte, 0, 64+len(region)+len(self.Addr))
	b = append(b, "bristle-join-v1\x00"...)
	b = binary.BigEndian.AppendUint64(b, uint64(self.Key))
	if self.Mobile {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(region)))
	b = append(b, region...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(self.Addr)))
	b = append(b, self.Addr...)
	b = binary.BigEndian.AppendUint64(b, self.Epoch)
	return b
}

// joinProof attaches this node's identity proof to an outgoing TJoin.
// Without an identity the join goes out unsigned (legacy form).
func (n *Node) joinProof(m *wire.Message) {
	id := n.cfg.Identity
	if id == nil {
		return
	}
	m.Pub = id.Public()
	m.Region = stationaryRegion(n.cfg)
	m.Sig = id.Sign(joinStatement(m.Self, m.Region))
}

// stationaryRegion is the region a node's key derivation actually uses:
// mobile nodes never stripe, so their proofs claim no region.
func stationaryRegion(cfg Config) string {
	if cfg.Mobile {
		return ""
	}
	return cfg.Region
}

// joinReject is why a TJoin was refused: the suffix of its
// join.rejected.* counter.
type joinReject string

const (
	// joinUnsigned: no proof, and this node requires one.
	joinUnsigned joinReject = "unsigned"
	// joinBadSig: the signature doesn't verify over the join statement.
	joinBadSig joinReject = "bad_sig"
	// joinKeyMismatch: the claimed key is not IDKey(pub, region, regions):
	// a forged stationary/striped key, a region squat, or a key belonging
	// to some other identity.
	joinKeyMismatch joinReject = "key_mismatch"
	// joinDuplicateID: the key is already bound to a different identity
	// (or an unsigned join claims a verified key).
	joinDuplicateID joinReject = "duplicate_id"
)

// verifyJoin checks a TJoin's identity claim. It returns "" to admit, or
// the reason to reject.
func (n *Node) verifyJoin(m *wire.Message) joinReject {
	if len(m.Pub) == 0 {
		if n.cfg.RequireVerifiedJoins {
			return joinUnsigned
		}
		// Unverified joins may coexist with verified ones, but must not
		// claim a key some identity has already proven ownership of.
		n.idsMu.Lock()
		_, taken := n.ids[m.Self.Key]
		n.idsMu.Unlock()
		if taken {
			return joinDuplicateID
		}
		return ""
	}
	if !hashkey.VerifySig(m.Pub, joinStatement(m.Self, m.Region), m.Sig) {
		return joinBadSig
	}
	region := m.Region
	if m.Self.Mobile {
		region = "" // mobile keys never stripe, whatever the claim says
	}
	if hashkey.IDKey(m.Pub, region, n.cfg.Regions) != m.Self.Key {
		return joinKeyMismatch
	}
	fp := sha256.Sum256(m.Pub)
	n.idsMu.Lock()
	defer n.idsMu.Unlock()
	if prev, ok := n.ids[m.Self.Key]; ok && prev != fp {
		return joinDuplicateID
	}
	n.ids[m.Self.Key] = fp
	return ""
}

// handleJoin admits (or rejects) a joining node. An admitted stationary
// joiner enters the ring unless it asked only to observe; a mobile joiner
// never does (membership.go). Every admitted joiner receives the ring, so
// the reply is sized by the stationary layer, not by the mobile fleet.
func (n *Node) handleJoin(m *wire.Message) *wire.Message {
	n.ctr.joinRequests.Inc()
	if why := n.verifyJoin(m); why != "" {
		n.ctr.joinRejected[why].Inc()
		n.logf("join rejected (%s) from %v (%s)", why, m.Self.Key, m.Self.Addr)
		return &wire.Message{Type: wire.TJoinResp, Seq: m.Seq}
	}
	n.ctr.joinAccepted.Inc()
	if n.cfg.Logger != nil {
		n.logf("join from %v (%s)", m.Self.Key, m.Self.Addr)
	}
	if !m.Observer {
		n.members.apply(direct, m.Self)
	}
	// A copy: the reply's Entries are recycled with it (wire.PutMessage).
	return &wire.Message{Type: wire.TJoinResp, Seq: m.Seq, Found: true, Entries: n.KnownPeers()}
}
