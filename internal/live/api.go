package live

// This file is the node's public surface beyond publish (publish.go),
// resolve/discover (resolve.go) and rebind (node.go): join, register and
// ping, each one method taking the caller's context — it observes
// cancellation and deadline end to end, through retries, backoff pauses,
// dials, and pooled exchanges. Introspection is likewise one method:
// Stats returns the node's observable state as a single coherent snapshot.

import (
	"context"
	"fmt"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// JoinViaContext contacts a bootstrap node, announces this node, and
// adopts the returned membership. With an Identity configured the join
// carries a signed proof of the node's self-certifying key (join.go).
func (n *Node) JoinViaContext(ctx context.Context, bootstrapAddr string) error {
	req := &wire.Message{Type: wire.TJoin, Self: n.SelfEntry()}
	n.joinProof(req)
	resp, err := n.request(ctx, bootstrapAddr, req)
	if err != nil {
		return fmt.Errorf("live: join via %s: %w", bootstrapAddr, err)
	}
	if resp.Type != wire.TJoinResp || !resp.Found {
		return fmt.Errorf("live: join rejected by %s", bootstrapAddr)
	}
	n.members.apply(hearsay, resp.Entries...)
	return nil
}

// RegisterWithContext records this node's interest in the movement of the
// node currently reachable at targetAddr. A target whose R(self) is full
// of live registrations refuses: the error wraps ErrOverloaded.
func (n *Node) RegisterWithContext(ctx context.Context, targetAddr string) error {
	resp, err := n.request(ctx, targetAddr, &wire.Message{Type: wire.TRegister, Self: n.SelfEntry()})
	switch {
	case err != nil:
		return fmt.Errorf("live: register with %s: %w", targetAddr, err)
	case resp.Type != wire.TRegisterAck:
		return fmt.Errorf("live: register with %s: unexpected response %v", targetAddr, resp.Type)
	case !resp.Found:
		return fmt.Errorf("live: register with %s: %w", targetAddr, ErrOverloaded)
	}
	return nil
}

// PingContext checks liveness of a peer address.
func (n *Node) PingContext(ctx context.Context, addr string) error {
	resp, err := n.request(ctx, addr, &wire.Message{Type: wire.TPing})
	if err != nil {
		return err
	}
	defer wire.PutMessage(resp)
	if resp.Type != wire.TPong {
		return fmt.Errorf("live: unexpected ping response %v", resp.Type)
	}
	return nil
}

// CachedAddr returns this node's cached address for key, if its lease is
// still fresh. A read-only probe: it neither promotes the entry nor
// records cache metrics.
func (n *Node) CachedAddr(key hashkey.Key) (string, bool) {
	return n.loc.Peek(key)
}

// Stats is a coherent point-in-time snapshot of a node's observable
// state — identity, binding, table sizes, suspicion, and the counter
// registry.
type Stats struct {
	// Key is the node's hash key; Addr and Epoch its current binding.
	Key   hashkey.Key
	Addr  string
	Epoch uint64
	// Peers is the size of the stationary ring this node knows (self
	// included when stationary); mobiles are never counted.
	Peers int
	// Registrations is the size of R(self), including not-yet-swept
	// lapsed leases.
	Registrations int
	// OwnedKeys counts the resource keys published at this node's address
	// beyond its identity key.
	OwnedKeys int
	// StoreRecords counts the location records this node holds as an
	// owner/replica, lapsed leases included: the store deletes none.
	StoreRecords int
	// CacheEntries counts the location cache's entries.
	CacheEntries int
	// PoolSessions counts the open pooled peer sessions.
	PoolSessions int
	// Suspects lists the peer addresses whose circuit breakers are open
	// or half-open — the peers this node currently routes around. Sorted.
	Suspects []string
	// Region is the node's configured locality label ("" when unset).
	Region string
	// PeerRTTs is the per-peer round-trip table behind latency-ordered
	// replica selection: each known peer's smoothed RTT (an EWMA over this
	// node's own exchanges with it — no probe traffic), its sample count,
	// and whether its breaker currently marks it suspect. Ascending by RTT.
	PeerRTTs []PeerRTT
	// Counters is a snapshot of the node's counter registry (empty when
	// no Counters were configured).
	Counters map[string]uint64
}

// FramesPerWrite reads one coalescing point's frames-per-write ratio out
// of a counter snapshot or interval delta; side is "serve" (the replies an
// accepted conn's reader queued per write) or "pool" (the frames a pooled
// session's writer put into each write). 1 means one syscall per frame; 0
// means no such write (or no Counters).
func FramesPerWrite(counters map[string]uint64, side string) float64 {
	writes := counters[side+".flushes"]
	if writes == 0 {
		return 0
	}
	return float64(counters[side+".frames"]) / float64(writes)
}

// Stats returns a snapshot of the node's observable state. Safe to call
// concurrently with any operation; each field is individually consistent.
func (n *Node) Stats() Stats {
	b := n.self.Load()
	s := Stats{
		Key:           n.key,
		Addr:          b.addr,
		Epoch:         b.epoch,
		Peers:         n.members.size(),
		Registrations: n.registry.size(),
		StoreRecords:  n.store.size(),
		CacheEntries:  n.loc.Len(),
		PoolSessions:  n.pool.sessionCount(),
		Region:        n.cfg.Region,
		Counters:      n.cfg.Counters.Snapshot(),
	}
	s.Suspects, s.PeerRTTs = n.peers.peerStats()
	n.ownedMu.Lock()
	s.OwnedKeys = len(n.owned)
	n.ownedMu.Unlock()
	return s
}
