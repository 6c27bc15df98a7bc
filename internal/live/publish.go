package live

// This file is the publish path: the owned-key set and publish, the one
// function behind PublishContext and a move's republication.
//
// Replicas store an owned key as key → owner and the address once, in the
// owner's identity record (store.go), so the two publications differ only
// in what the batch holds. A full publish carries the binding and every
// owned key to the replicas of each; a move carries the binding alone —
// one record — to every replica the last full publish reached, and each
// owned key answers with the new address the moment that record lands.
// The owned set, and what the node remembers of its last full publish,
// share one small mutex: OwnKeys/DisownKeys/OwnedKeys and a concurrent
// publish never touch any other node state.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// OwnKeys adds resource keys to the set this node publishes as its own:
// the next publish, a move's included, carries them all to their replicas
// (batched per replica), and every later move takes them along at no cost.
func (n *Node) OwnKeys(keys ...hashkey.Key) {
	n.ownedMu.Lock()
	defer n.ownedMu.Unlock()
	for _, k := range keys {
		n.owned[k] = struct{}{}
	}
	n.ownedGen++
}

// DisownKeys removes resource keys from the owned set. Already-published
// records lapse with their lease rather than being withdrawn.
func (n *Node) DisownKeys(keys ...hashkey.Key) {
	n.ownedMu.Lock()
	defer n.ownedMu.Unlock()
	for _, k := range keys {
		delete(n.owned, k)
	}
	n.ownedGen++
}

// OwnedKeys returns the resource keys currently published at this node's
// address (beyond its identity key), sorted.
func (n *Node) OwnedKeys() []hashkey.Key {
	n.ownedMu.Lock()
	out := n.ownedLocked()
	n.ownedMu.Unlock()
	slices.Sort(out)
	return out
}

// ownedLocked copies the owned set, unsorted; the caller holds ownedMu.
func (n *Node) ownedLocked() []hashkey.Key {
	out := make([]hashkey.Key, 0, len(n.owned))
	for k := range n.owned {
		out = append(out, k)
	}
	return out
}

// fullPublish is what a node keeps of its last full publish that every
// holder acknowledged: while it still describes the world, a move owes
// those holders one record and nobody else anything.
type fullPublish struct {
	gen     uint64    // Node.ownedGen when it read the owned set
	at      time.Time // when it started; the owned records' leases run from here
	ring    int       // the membership generation it placed by (memberView.gen)
	holders []string  // every replica address it stored at
}

// publishBatchMax bounds the records per TPublishBatch frame, keeping a
// worst-case frame comfortably under wire.MaxFrame.
const publishBatchMax = 8192

// PublishContext pushes this node's current address, and every key in
// its owned set as a record naming this node its owner, to the replicas
// of each (the paper's location publication, k-replicated). Records are
// grouped by replica, so N keys cost O(replicas) RPCs, not O(N): each
// distinct replica address receives one TPublishBatch (chunked at
// publishBatchMax) led by the binding; a node owning nothing sends
// batches of that one record. It succeeds when the binding was stored at
// ≥1 replica of the node's own key; a replica that could not be reached
// is sent everything again by the next publish.
func (n *Node) PublishContext(ctx context.Context) error { return n.publish(ctx, true) }

// publish is every publication. A move asks for full=false and gets the
// one-record form — the binding alone, to the holders of the last full
// publish and the replicas of the node's own key — when that is all the
// replicas lack: the owned set is what the last full publish sent, the
// membership view is the generation it placed by (a join, a restart or a
// rejoin swaps the view), no holder has missed a frame since, and
// the owned records' leases are less than half run (with no maintenance
// loop renewing them, a node that keeps moving renews them here).
// Anything else is a full publish, which is also what repairs a holder
// that missed a binding.
func (n *Node) publish(ctx context.Context, full bool) error {
	now := time.Now()
	// One atomic read of (addr, epoch): every record of this publication
	// asserts the same binding, even against a concurrent rebind.
	self := n.SelfEntry()
	// One membership snapshot serves the whole fan-out. A publish writes
	// to every owner of each record, so it takes each set unordered: no
	// contact order, and no RTT or suspicion read.
	v := n.members.snapshot()
	if len(v.ring) == 0 {
		return errNoStationaries
	}
	var buf [8]wire.Entry
	replicasOf := func(k hashkey.Key) []wire.Entry {
		return replicas(buf[:0], v.ring, k, n.cfg.Replication, len(n.cfg.Regions))
	}
	// Every batch leads with the binding: it is the record the others
	// resolve through, and the whole of a move's batch. The batches share
	// this one, a batch of length 1, until a holder's first owned record.
	binding := []wire.Entry{self}
	batches := make(map[string][]wire.Entry, len(v.ring))
	identity := make([]string, 0, n.cfg.Replication)
	for _, o := range replicasOf(self.Key) {
		identity = append(identity, o.Addr)
		batches[o.Addr] = binding
	}

	n.ownedMu.Lock()
	gen, last := n.ownedGen, n.full
	full = full || last.holders == nil || last.gen != gen || last.ring != v.gen ||
		n.cfg.LeaseTTL > 0 && now.Sub(last.at) >= n.cfg.LeaseTTL/2
	var keys []hashkey.Key
	if full {
		keys = n.ownedLocked()
	}
	n.ownedMu.Unlock()
	if !full {
		for _, addr := range last.holders {
			batches[addr] = binding
		}
	}
	slices.Sort(keys)
	// A holder's batch is sized once: its expected share, plus an eighth.
	size := 1 + len(keys)*min(n.cfg.Replication, len(v.ring))/len(v.ring)
	size += size / 8
	for _, k := range keys {
		rec := wire.Entry{Key: k, TTLMilli: self.TTLMilli, Epoch: self.Epoch}
		for _, o := range replicasOf(k) {
			b := batches[o.Addr]
			if len(b) < 2 {
				b = append(make([]wire.Entry, 0, size), self)
			}
			batches[o.Addr] = append(b, rec)
		}
	}

	type outcome struct {
		addr string
		err  error
	}
	results := make(chan outcome, len(batches))
	for addr, recs := range batches {
		if !n.enter() {
			results <- outcome{addr, ErrStopped}
			continue
		}
		go func() { defer n.wg.Done(); results <- outcome{addr, n.sendBatch(ctx, addr, self, recs)} }()
	}
	bound := false // the binding is stored at a replica of this node's own key
	holders := make([]string, 0, len(batches))
	var lastErr error
	for range batches {
		r := <-results
		if r.err != nil {
			lastErr = r.err
			n.logf("%v", r.err)
			continue
		}
		holders = append(holders, r.addr)
		bound = bound || slices.Contains(identity, r.addr)
	}
	n.ownedMu.Lock()
	switch {
	case lastErr != nil:
		n.ownedGen++ // a holder missed this frame: the next publish is full and repairs it
	case full:
		n.full = fullPublish{gen: gen, at: now, ring: v.gen, holders: holders}
	}
	n.ownedMu.Unlock()
	if !bound {
		return fmt.Errorf("live: publish: binding stored at no replica of %v: %w", self.Key, lastErr)
	}
	return nil
}

// sendBatch delivers one holder's records, a frame per publishBatchMax of
// them, each under self as the sender whose binding the receiver ingests.
// A stationary node that is its own replica ingests without a frame.
func (n *Node) sendBatch(ctx context.Context, addr string, self wire.Entry, recs []wire.Entry) error {
	for len(recs) > 0 {
		chunk := recs[:min(len(recs), publishBatchMax)]
		recs = recs[len(chunk):]
		// Each frame gets its own message: Seq is stamped per exchange, so
		// the concurrent fan-out must not share them.
		msg := &wire.Message{Type: wire.TPublishBatch, Self: self, Entries: chunk}
		if addr == self.Addr {
			n.handlePublishBatch(msg)
			continue
		}
		n.ctr.publishRPCs.Inc()
		resp, err := n.request(ctx, addr, msg)
		switch {
		case err != nil:
			return fmt.Errorf("live: publish to %s: %w", addr, err)
		case resp.Type != wire.TPublishAck:
			return fmt.Errorf("live: publish to %s: unexpected response %v", addr, resp.Type)
		}
	}
	return nil
}
