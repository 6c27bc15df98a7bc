package live

// This file is the address-resolution hot path. The paper gives a mobile
// node two ways to be found: early binding (it pushes <key, addr> to
// registered correspondents through its dissemination tree) and late
// binding (a correspondent asks the location repository via _discovery,
// Figure 2). Both feed the same lease-aware sharded cache
// (internal/loccache), and ResolveContext reads it first:
//
//   hit  → a live lease: answer from it; no lock shared with the
//          protocol path, no network.
//   miss → no entry, or one whose lease has lapsed: go to the network,
//          as the paper's correspondent asks the location repository
//          once its binding lapses, but through a singleflight group:
//          concurrent misses for one key share a single _discovery RPC
//          (counted as loccache.coalesced), which the caller that
//          missed first runs itself, under its own context, asking
//          the record's replicas in turn, each with its own attempts.
//          A lapsed address is never answered.
//
// DiscoverContext remains the always-network form (late binding forced);
// it now write-throughs its answer — with the replica's remaining lease —
// into the same cache, so reactive results expire client-side exactly
// like pushed ones.

import (
	"context"
	"fmt"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// ResolveContext resolves key's current address, cache first. A fresh
// lease answers immediately; anything else goes to the network through a
// singleflight group so N concurrent misses cost one _discovery. The
// context bounds only this caller's wait — a discovery others wait on
// keeps running when the caller that started it gives up.
func (n *Node) ResolveContext(ctx context.Context, key hashkey.Key) (string, error) {
	if addr, ok := n.loc.Lookup(key); ok {
		return addr, nil
	}
	// A flight re-checks the cache first: a caller can miss, lose its
	// timeslice, and start its flight only after a concurrent one for the
	// key landed. The re-check is a Peek, as the caller's miss was counted,
	// and an answer it gives the first run counts as coalesced: a discovery
	// this caller did not make served it. The first run is this caller's,
	// under ctx. A second, which Close joins, continues a flight this caller
	// gave up on, under the node's lifetime, and still ends: each of the k
	// replicas costs at most RetryAttempts × RequestTimeout plus the capped
	// pauses. Nothing is cached from a failed discovery.
	flown := false
	addr, shared, err := n.flights.Do(ctx, key, func() (string, error) {
		first := !flown
		flown = true
		if addr, ok := n.loc.Peek(key); ok {
			if first {
				n.ctr.coalesced.Inc()
			}
			return addr, nil
		}
		fctx := ctx
		if !first {
			if !n.enter() {
				return "", ErrStopped
			}
			defer n.wg.Done()
			fctx = n.runCtx
		}
		n.ctr.discoveries.Inc()
		return n.DiscoverContext(fctx, key)
	})
	if shared {
		n.ctr.coalesced.Inc()
	}
	return addr, err
}

// DiscoverContext resolves key's current address through the location
// layer, always over the network (forced late binding). The answer —
// including the replica's remaining lease — is written through the
// location cache, so a subsequent ResolveContext answers locally until
// the lease lapses. Prefer ResolveContext on hot paths.
func (n *Node) DiscoverContext(ctx context.Context, key hashkey.Key) (string, error) {
	addr, ttl, epoch, err := n.discoverNetwork(ctx, key)
	if err != nil {
		return "", err
	}
	// Epoch-aware fill: if an LDT push raced this discovery with a newer
	// binding, the cache keeps the push and this stale answer is dropped
	// on the floor (the caller still gets it once; the next resolve hits
	// the newer cached address).
	n.loc.PutEpoch(key, addr, ttl, epoch)
	return addr, nil
}

// discoverNetwork asks the record's replicas for key's address, falling
// over across them (§2.3.2) in suspicion-aware order. The replicas are
// tried sequentially on purpose: the common case is answered by the
// first healthy replica for the cost of one exchange, and the ordering
// (healthy first) already bounds the tail. Each replica gets an exchange
// of its own, so a silent one costs its attempts and no more. Returns the
// address, the remaining lease the serving replica reported (0 = no
// lease), and the publish epoch the record was bound under.
func (n *Node) discoverNetwork(ctx context.Context, key hashkey.Key) (string, time.Duration, uint64, error) {
	var buf [8]wire.Entry
	owners, err := n.owners(buf[:0], key)
	if err != nil {
		return "", 0, 0, err
	}
	var lastErr error = ErrNotFound
	for _, owner := range owners {
		req := wire.Message{Type: wire.TDiscover, Key: key}
		var resp *wire.Message
		if owner.Key == n.key {
			resp = n.handleDiscover(&req)
		} else if resp, err = n.request(ctx, owner.Addr, &req); err != nil {
			lastErr = fmt.Errorf("live: discover via %s: %w", owner.Addr, err)
			continue
		}
		// What is read out of the reply before it is recycled does not alias it.
		found := resp.Type == wire.TDiscoverResp && resp.Found
		rec := resp.Self
		wire.PutMessage(resp)
		if found {
			return rec.Addr, time.Duration(rec.TTLMilli) * time.Millisecond, rec.Epoch, nil
		}
	}
	return "", 0, 0, lastErr
}
