package live

// This file is the LDT push path: UpdateRegistryContext (the paper's
// Figure 4 fan-out to registered correspondents) and the re-delegation
// each head performs on receiving an update (store.go), both one fanOut
// that deals one Figure-4 level (ldt.Deal) and hands each head's frame,
// head by head, to the head's pooled session. No hop builds a tree: the
// tree is the hops' deals, and it is ldt.Build's. It is the
// load-spreading mechanism; nothing else sits between it and the socket,
// so what a sender-side queue might promise is kept elsewhere:
//
//   - Ordering is FIFO along each tree path: a move's fanOut enqueues
//     before the next move's, a session writes one sender's frames in
//     order, and a relay forwards on the reader that received them. Over
//     an unchanged registry every move takes the same paths, so no push
//     overtakes another; epochTable.observe drops what a changed tree or
//     the network still reorders before it is applied or re-delegated.
//   - Shutdown is the node's: a send only enqueues, and a dial still
//     running when the node closes ends with the node's lifetime.
//   - A slow head is its session's: its frames wait behind its dial, not
//     in front of the other heads', so an unreachable head costs its own
//     subtree a late binding and nobody else anything. No head holds a
//     sender up: a send stages the frame under the session's locks, and
//     the session's writer of last resort (drain) writes it.

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

// fanOut is one step of Figure 4, run by the mover on its registry and by
// every receiver of an update on the subset it was delegated: it deals
// recipients into capacity-aware partitions under this node (ldt.Deal) and
// sends each partition's head one TUpdate about subject that delegates the
// rest of the partition to it, in the step's order. The head re-deals that
// rest as ldt.Build recurses, so a push travels Build's tree, registrant
// for registrant. It returns when every head's frame is queued on its
// session or has failed; a failed head is logged, not returned (§2.3.2:
// its partition recovers through late binding).
func (n *Node) fanOut(ctx context.Context, subject wire.Entry, recipients []wire.Entry) {
	// Member i is recipients[i]: the step breaks capacity ties by ID, so by
	// position, which is key order at the mover and, at a head, the order
	// its parent's step handed it.
	members := make([]ldt.Member, len(recipients))
	for i, e := range recipients {
		members[i] = ldt.Member{ID: int32(i), Capacity: e.Capacity}
	}
	for _, part := range ldt.Deal(ldt.Member{Capacity: n.cfg.Capacity}, members, ldt.Params{UnitCost: 1}) {
		rest := make([]wire.Entry, len(part)-1) // each frame owns its entries
		for i, m := range part[1:] {
			rest[i] = recipients[m.ID]
		}
		addr := recipients[part[0].ID].Addr
		msg := &wire.Message{Type: wire.TUpdate, Self: subject, Entries: rest}
		if err := n.oneWay(ctx, addr, msg); err != nil {
			n.logf("update push to %s failed: %v", addr, err)
		}
	}
}
