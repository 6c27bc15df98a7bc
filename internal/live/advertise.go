package live

// This file is the LDT push path: UpdateRegistryContext (the paper's
// Figure 4 fan-out to registered correspondents) and the re-delegation
// each tree level performs on receiving an update (store.go), both one
// fanOut feeding a coalescing per-node update queue.
//
// The queue is the write-side dual of the resolve path's singleflight:
// where N concurrent resolvers share one _discovery, N pending pushes of
// the same subject to the same recipient collapse to one frame carrying
// the newest epoch. A mobile node that moves A→B→C faster than its tree
// drains sends C — B is subsumed in the queue, never on the wire — and a
// recipient can therefore never be pushed backwards. A single flusher
// goroutine drains the queue; its sends ride the pooled per-peer writer
// (pool.go writeLoop), so frames queued back-to-back for one recipient
// batch onto one connection write cycle. All flusher I/O is bounded by
// the node's lifecycle context: Close cancels it and the flusher exits
// mid-fan-out instead of stalling shutdown behind a slow subtree.

import (
	"context"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/ldt"
	"bristle/internal/wire"
)

// updateKey identifies a coalescing slot: one pending frame per
// (recipient, subject) pair.
type updateKey struct {
	addr    string
	subject hashkey.Key
}

// pendingUpdate is one queued LDT push. done closes when the frame has
// been handed to the transport (or the queue closed), so a rebind can
// await its own fan-out without pinning the frame that actually ships —
// coalescing may have replaced it with a newer one.
type pendingUpdate struct {
	addr string
	msg  *wire.Message
	done chan struct{}
}

// updateQueue coalesces pending LDT pushes until the flusher takes them.
type updateQueue struct {
	mu      sync.Mutex
	pending map[updateKey]*pendingUpdate
	order   []updateKey // FIFO of live slots
	wake    chan struct{}
	closed  bool
}

func newUpdateQueue() *updateQueue {
	return &updateQueue{
		pending: make(map[updateKey]*pendingUpdate),
		wake:    make(chan struct{}, 1),
	}
}

// closedChan is returned by enqueue after close: waiters proceed
// immediately rather than blocking on a push that will never ship.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// enqueue queues msg for addr, coalescing against any pending push of
// the same subject to the same recipient: an older-epoch msg is subsumed
// by the pending one, a newer-epoch msg replaces it wholesale (its
// delegation partition supersedes), and an equal-epoch msg unions the
// delegated entries (two pushes of the same move must still reach both
// subtrees). Returns the done channel to await and whether the call
// coalesced into an existing slot.
func (q *updateQueue) enqueue(addr string, msg *wire.Message) (<-chan struct{}, bool) {
	k := updateKey{addr: addr, subject: msg.Self.Key}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return closedChan, false
	}
	if p, ok := q.pending[k]; ok {
		switch {
		case msg.Self.Epoch < p.msg.Self.Epoch:
			// Stale before it ever shipped: the pending frame already
			// carries a later move.
		case msg.Self.Epoch > p.msg.Self.Epoch:
			p.msg = msg
		default:
			p.msg = mergeDelegations(p.msg, msg)
		}
		return p.done, true
	}
	p := &pendingUpdate{addr: addr, msg: msg, done: make(chan struct{})}
	q.pending[k] = p
	q.order = append(q.order, k)
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return p.done, false
}

// mergeDelegations unions the delegated entries of two equal-epoch
// frames (newest-entry-wins per key via epoch). A fresh Message is
// built so neither input is mutated.
func mergeDelegations(a, b *wire.Message) *wire.Message {
	out := &wire.Message{Type: a.Type, Self: a.Self}
	seen := make(map[hashkey.Key]int, len(a.Entries)+len(b.Entries))
	for _, e := range a.Entries {
		seen[e.Key] = len(out.Entries)
		out.Entries = append(out.Entries, e)
	}
	for _, e := range b.Entries {
		if i, ok := seen[e.Key]; ok {
			if e.Epoch > out.Entries[i].Epoch {
				out.Entries[i] = e
			}
			continue
		}
		seen[e.Key] = len(out.Entries)
		out.Entries = append(out.Entries, e)
	}
	return out
}

// take blocks until at least one pending push exists (returning the
// whole backlog in FIFO order) or the queue closes (returning nil).
// Taken items are no longer coalescing targets: a new enqueue for the
// same slot starts a fresh frame.
func (q *updateQueue) take() []*pendingUpdate {
	for {
		q.mu.Lock()
		if len(q.order) > 0 {
			batch := make([]*pendingUpdate, 0, len(q.order))
			for _, k := range q.order {
				if p, ok := q.pending[k]; ok {
					batch = append(batch, p)
					delete(q.pending, k)
				}
			}
			q.order = q.order[:0]
			q.mu.Unlock()
			return batch
		}
		if q.closed {
			q.mu.Unlock()
			return nil
		}
		q.mu.Unlock()
		<-q.wake
	}
}

// close shuts the queue: pending (untaken) pushes are abandoned with
// their done channels closed, enqueue becomes a no-op, and the flusher's
// take returns nil once the backlog it already holds is flushed.
func (q *updateQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for k, p := range q.pending {
		close(p.done)
		delete(q.pending, k)
	}
	q.order = q.order[:0]
	// Safe: enqueue checks closed under this same mutex before sending.
	close(q.wake)
}

// enqueueUpdate queues one LDT push and lazily starts the flusher.
func (n *Node) enqueueUpdate(addr string, msg *wire.Message) <-chan struct{} {
	n.ensureFlusher()
	done, coalesced := n.updq.enqueue(addr, msg)
	if coalesced {
		n.ctr.updatesCoalesced.Inc()
	}
	return done
}

// ensureFlusher starts the update flusher goroutine on first use. Lazy
// start keeps nodes that never push updates goroutine-free and — because
// it checks stopped under lifeMu — guarantees no flusher is spawned
// after Close has begun (Close sets stopped before waiting on wg).
func (n *Node) ensureFlusher() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.stopped || n.flusherOn {
		return
	}
	n.flusherOn = true
	n.wg.Add(1)
	go n.updateFlusher()
}

// updateFlusher drains the coalescing queue: each round takes the whole
// backlog, groups it by recipient, and ships each recipient's frames
// sequentially over its pooled connection (concurrently across
// recipients). Waiting for a round to finish before taking the next is
// what buys coalescing: pushes arriving while a slow round is in flight
// pile into the queue and merge.
func (n *Node) updateFlusher() {
	defer n.wg.Done()
	for {
		batch := n.updq.take()
		if batch == nil {
			return
		}
		byAddr := make(map[string][]*pendingUpdate)
		var addrs []string
		for _, p := range batch {
			if _, ok := byAddr[p.addr]; !ok {
				addrs = append(addrs, p.addr)
			}
			byAddr[p.addr] = append(byAddr[p.addr], p)
		}
		var fan sync.WaitGroup
		for _, addr := range addrs {
			fan.Add(1)
			go func(addr string, ps []*pendingUpdate) {
				defer fan.Done()
				for _, p := range ps {
					// Bounded by the node's lifecycle, not any caller's
					// deadline: a dead delegate is not an error (§2.3.2 —
					// its subtree recovers through late binding), and a
					// closing node abandons the send instantly.
					if err := n.oneWay(n.runCtx, addr, p.msg); err != nil {
						n.logf("update push to %s failed: %v", addr, err)
					}
					close(p.done)
				}
			}(addr, byAddr[addr])
		}
		fan.Wait()
	}
}

// UpdateRegistryContext pushes this node's current address to every
// registered node through the capacity-aware LDT of Figure 4. The pushes
// go through the coalescing queue — a second move queued before the
// first finished replaces it — and this call waits until its own frames
// (or newer ones that subsumed them) have been handed to the transport,
// or ctx fires.
func (n *Node) UpdateRegistryContext(ctx context.Context) error {
	// Lapsed registrants miss the push by design.
	if expired := n.registry.sweep(time.Now()); expired > 0 {
		n.ctr.registryExpired.Add(uint64(expired))
	}
	v := n.registry.snapshot()
	registrants := make([]wire.Entry, 0, len(v.byKey))
	for _, r := range v.byKey {
		registrants = append(registrants, r.entry)
	}
	for _, done := range n.fanOut(n.SelfEntry(), registrants) {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// fanOut is one level of Figure 4, run by the mover on its registry and by
// every receiver of an update on the subset it was delegated: it schedules
// recipients into a capacity-aware tree under this node, and queues for
// each of the tree's first-level heads one TUpdate about subject that
// delegates the head's whole subtree to it. It only queues — the flusher
// sends — and returns each queued frame's done channel.
func (n *Node) fanOut(subject wire.Entry, recipients []wire.Entry) []<-chan struct{} {
	if len(recipients) == 0 {
		return nil
	}
	// Member i+1 is recipients[i]; 0 is this node, the root.
	members := make([]ldt.Member, len(recipients))
	for i, e := range recipients {
		members[i] = ldt.Member{ID: int32(i + 1), Capacity: e.Capacity}
	}
	tree, err := ldt.Build(ldt.Member{ID: 0, Capacity: n.cfg.Capacity}, members, ldt.Params{UnitCost: 1})
	if err != nil {
		n.logf("ldt fan-out: %v", err)
		return nil
	}
	// A head's subtree is every node strictly below it: the head itself is
	// the frame's recipient.
	var sub []wire.Entry
	var below func(*ldt.Node)
	below = func(t *ldt.Node) {
		for _, c := range t.Children {
			sub = append(sub, recipients[c.Member.ID-1])
			below(c)
		}
	}
	dones := make([]<-chan struct{}, 0, len(tree.Root.Children))
	for _, head := range tree.Root.Children {
		sub = nil // each frame owns its entries
		below(head)
		msg := &wire.Message{Type: wire.TUpdate, Self: subject, Entries: sub}
		dones = append(dones, n.enqueueUpdate(recipients[head.Member.ID-1].Addr, msg))
	}
	return dones
}
