package live

// This file is the LDT push path: UpdateRegistryContext (the paper's
// Figure 4 fan-out to registered correspondents) and the re-delegation
// each tree level performs on receiving an update (store.go), both one
// fanOut that hands each head's frame, head by head, to the head's pooled
// session. The tree is the load-spreading mechanism; nothing else sits
// between it and the socket, so what a sender-side queue might promise
// is kept elsewhere:
//
//   - Ordering is FIFO along each tree path: a move's fanOut enqueues
//     before the next move's, a session writes one sender's frames in
//     order, and a relay forwards on the reader that received them. Over
//     an unchanged registry every move takes the same paths, so no push
//     overtakes another; epochTable.observe drops what a changed tree or
//     the network still reorders before it is applied or re-delegated.
//   - Shutdown is the pool's: a send only enqueues, and a dial still
//     running when the node closes ends with the pool's life.
//   - A slow head is its session's: its frames wait behind its dial, not
//     in front of the other heads', so an unreachable head costs its own
//     subtree a late binding and nobody else anything. Only a head whose
//     sessionInflight queue is full holds a sender up, for at most
//     RequestTimeout.

import (
	"context"

	"bristle/internal/ldt"
	"bristle/internal/wire"
)

// UpdateRegistryContext pushes this node's current address to every
// registered node through the capacity-aware LDT of Figure 4, returning
// once every first-level head's frame has been handed to its session or
// has failed, or ctx fires. The registrants are taken in key order: the
// tree breaks capacity ties by position, so an unchanged registry yields
// the same tree — the same heads, over the sessions already open to them
// — move after move.
func (n *Node) UpdateRegistryContext(ctx context.Context) error {
	n.SweepRegistry() // lapsed registrants miss the push by design
	n.fanOut(ctx, n.SelfEntry(), n.Registry())
	return ctx.Err()
}

// fanOut is one level of Figure 4, run by the mover on its registry and by
// every receiver of an update on the subset it was delegated: it schedules
// recipients into a capacity-aware tree under this node and sends each of
// the tree's first-level heads one TUpdate about subject that delegates
// the head's whole subtree to it. It returns when every head's frame is
// queued on its session or has failed; a failed head is logged, not
// returned (§2.3.2: its subtree recovers through late binding).
func (n *Node) fanOut(ctx context.Context, subject wire.Entry, recipients []wire.Entry) {
	if len(recipients) == 0 {
		return
	}
	// Member i+1 is recipients[i]; 0 is this node, the root.
	members := make([]ldt.Member, len(recipients))
	for i, e := range recipients {
		members[i] = ldt.Member{ID: int32(i + 1), Capacity: e.Capacity}
	}
	tree, err := ldt.Build(ldt.Member{ID: 0, Capacity: n.cfg.Capacity}, members, ldt.Params{UnitCost: 1})
	if err != nil {
		n.logf("ldt fan-out: %v", err)
		return
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
	for _, head := range tree.Root.Children {
		sub = nil // each frame owns its entries
		below(head)
		addr := recipients[head.Member.ID-1].Addr
		msg := &wire.Message{Type: wire.TUpdate, Self: subject, Entries: sub}
		if err := n.oneWay(ctx, addr, msg); err != nil {
			n.logf("update push to %s failed: %v", addr, err)
		}
	}
}
