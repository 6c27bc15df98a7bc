package live

// This file is the publish path: the owned-key set (the resource records
// a mobile host re-homes when it moves) and PublishContext, the
// O(replicas) batched publication. The owned set has its own small
// mutex — OwnKeys/DisownKeys/OwnedKeys and a concurrent PublishContext
// never touch any other node state, so key churn can ride alongside a
// large in-flight publication.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// OwnKeys adds resource keys to the set this node publishes at its own
// address: PublishContext re-homes them all (batched per owner replica)
// and every rebind moves them with the node.
func (n *Node) OwnKeys(keys ...hashkey.Key) {
	n.ownedMu.Lock()
	defer n.ownedMu.Unlock()
	for _, k := range keys {
		n.owned[k] = struct{}{}
	}
}

// DisownKeys removes resource keys from the owned set. Already-published
// records lapse with their lease rather than being withdrawn.
func (n *Node) DisownKeys(keys ...hashkey.Key) {
	n.ownedMu.Lock()
	defer n.ownedMu.Unlock()
	for _, k := range keys {
		delete(n.owned, k)
	}
}

// OwnedKeys returns the resource keys currently published at this node's
// address (beyond its identity key), sorted.
func (n *Node) OwnedKeys() []hashkey.Key {
	n.ownedMu.Lock()
	out := make([]hashkey.Key, 0, len(n.owned))
	for k := range n.owned {
		out = append(out, k)
	}
	n.ownedMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// publishBatchMax bounds the records per TPublishBatch frame, keeping a
// worst-case frame comfortably under wire.MaxFrame.
const publishBatchMax = 8192

// PublishContext pushes this node's current address — and every record
// in its owned set — to the owners of each key (the paper's location
// publication, k-replicated). Records are grouped by owner replica so a
// move re-homes N keys in O(replicas) RPCs, not O(N): each distinct
// replica address receives one TPublishBatch (chunked at
// publishBatchMax) ingested record-by-record on the far side; a node
// owning nothing beyond its identity key sends a batch of one. It succeeds
// when every record was stored at ≥1 replica.
func (n *Node) PublishContext(ctx context.Context) error {
	now := time.Now()
	// One atomic read of (addr, epoch): every record of this publication
	// asserts the same binding, even against a concurrent rebind.
	self := n.SelfEntry()
	n.ownedMu.Lock()
	records := make([]wire.Entry, 0, 1+len(n.owned))
	records = append(records, self)
	for k := range n.owned {
		records = append(records, wire.Entry{Key: k, Addr: self.Addr, TTLMilli: self.TTLMilli, Epoch: self.Epoch})
	}
	n.ownedMu.Unlock()
	// One ranking serves the whole fan-out: suspicion is sampled once (not
	// one lock round per record) and every candidate's effective RTT —
	// measured or exploration-jittered — is frozen, so replica ordering
	// cannot flap mid-batch.
	var scratch rankScratch
	rk, err := n.rank(&scratch)
	if err != nil {
		return err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Key < records[j].Key })

	// Group every record's replica set by owner address. Self-owned
	// records (a stationary node can be its own replica) are ingested
	// locally without a frame.
	groups := make(map[string][]wire.Entry)
	var order []string
	var selfRecs []wire.Entry
	for _, rec := range records {
		for _, owner := range rk.owners(rec.Key, n.cfg.Replication) {
			if owner.Key == n.key {
				selfRecs = append(selfRecs, rec)
				continue
			}
			if _, ok := groups[owner.Addr]; !ok {
				order = append(order, owner.Addr)
			}
			groups[owner.Addr] = append(groups[owner.Addr], rec)
		}
	}

	stored := make(map[hashkey.Key]int, len(records)) // replicas holding each record
	if len(selfRecs) > 0 {
		accepted := 0
		for _, rec := range selfRecs {
			if n.store.apply(rec, now) {
				accepted++
				stored[rec.Key]++
			}
		}
		n.countIngest(len(selfRecs), accepted)
	}

	type chunkResult struct {
		recs []wire.Entry
		err  error
	}
	results := make(chan chunkResult)
	outstanding := 0
	for _, addr := range order {
		recs := groups[addr]
		outstanding += (len(recs) + publishBatchMax - 1) / publishBatchMax
		go func(addr string, recs []wire.Entry) {
			for start := 0; start < len(recs); start += publishBatchMax {
				end := start + publishBatchMax
				if end > len(recs) {
					end = len(recs)
				}
				chunk := recs[start:end]
				// Each replica gets its own message: Seq is stamped per
				// exchange, so concurrent fan-out must not share frames.
				msg := &wire.Message{Type: wire.TPublishBatch, Self: self, Entries: chunk}
				n.ctr.publishRPCs.Inc()
				resp, err := n.request(ctx, addr, msg)
				switch {
				case err != nil:
					results <- chunkResult{chunk, fmt.Errorf("live: publish to %s: %w", addr, err)}
				case resp.Type != wire.TPublishAck:
					results <- chunkResult{chunk, fmt.Errorf("live: unexpected publish response %v", resp.Type)}
				default:
					results <- chunkResult{chunk, nil}
				}
			}
		}(addr, recs)
	}
	var lastErr error
	for i := 0; i < outstanding; i++ {
		r := <-results
		if r.err != nil {
			lastErr = r.err
			continue
		}
		for _, rec := range r.recs {
			stored[rec.Key]++
		}
	}
	missing := 0
	for _, rec := range records {
		if stored[rec.Key] == 0 {
			missing++
		}
	}
	if missing > 0 {
		if lastErr != nil {
			return fmt.Errorf("live: publish: %d of %d records stored nowhere: %w", missing, len(records), lastErr)
		}
		return fmt.Errorf("live: publish: %d of %d records stored nowhere", missing, len(records))
	}
	return nil
}
