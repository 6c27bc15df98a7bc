package live

// This file is the node's repository fragment — the location records it
// holds as an owner/replica of other nodes' keys — plus the server-side
// handlers that ingest and serve them (TPublishBatch, TDiscover, TUpdate).
//
// A replica holds a publisher's address once, in the publisher's identity
// record. A key the publisher owns is stored as key → (owner's identity
// key, epoch, lease) with no address of its own, and a discover for it is
// answered through the owner's record on the same replica: a move
// rewrites one record per replica however many keys follow the mover.
//
// Both tables are sharded sixteen ways by key, mirroring loccache's
// layout: a publish batch ingesting thousands of records contends only
// per shard, never with concurrent discovers for unrelated keys, and
// never with membership, registry, or lifecycle state. The handlers are
// deliberately allocation-free in steady state (re-publishing a known
// record overwrites a map slot; logging is gated before the variadic
// call boxes its arguments), which is what keeps the hot serve path at
// 0 allocs/op (BenchmarkPublishIngestParallel).

import (
	"math"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// stateShards is the shard count of the node's keyed protocol tables
// (record store, seen-update epochs). Power of two so shard selection is
// a mask.
const stateShards = 16

// clockBase is the instant monotime counts from.
var clockBase = time.Now()

// monotime reads the monotonic clock as nanoseconds since clockBase. A
// lease is only ever compared with another instant, so this is the one
// clock read its check needs (time.Now reads the wall clock as well), and
// the comparison is one of integers.
func monotime() int64 { return int64(time.Since(clockBase)) }

// leaseEnd is the monotime at which a lease of ttlMilli milliseconds
// granted at now lapses, or 0 for the zero lease, which never does.
func leaseEnd(now int64, ttlMilli uint32) int64 {
	if ttlMilli == 0 {
		return 0
	}
	return now + int64(ttlMilli)*int64(time.Millisecond)
}

// storedLoc is one repository record. owner is the identity key of the
// publisher it came from: the record under that key itself is the
// publisher's identity record and holds its address; every other record
// is an owned key's, holds no address, and resolves through owner.
type storedLoc struct {
	owner   hashkey.Key
	addr    string // identity records only
	expires int64  // monotime when the lease lapses; 0 = no lease
	epoch   uint64 // publisher's move counter; newest-epoch-wins
}

func (s storedLoc) live(now int64) bool { return s.expires == 0 || now < s.expires }

type storeShard struct {
	mu sync.Mutex
	m  map[hashkey.Key]storedLoc
}

// recordStore is the sharded location repository: written by publishes,
// read to answer discovers. The epoch check runs under the record's
// shard lock, so concurrent publishes of one key serialize exactly where
// they must and nowhere else.
type recordStore struct {
	shards [stateShards]storeShard
}

func (s *recordStore) init() {
	for i := range s.shards {
		s.shards[i].m = make(map[hashkey.Key]storedLoc)
	}
}

func (s *recordStore) shard(k hashkey.Key) *storeShard {
	return &s.shards[uint64(k)&(stateShards-1)]
}

// apply ingests one record published by the node whose identity key is
// owner, under newest-epoch-wins: a record whose epoch is older than the
// live one already stored is the ghost of a pre-move publication (a frame
// transport.Faulty delayed or duplicated) and must not resurrect the old
// address — or, for an owned key, hand it back to an owner it has left. A
// record whose lease has lapsed no longer outranks anything. Only the
// owner's own record keeps e's address. Reports whether the record was
// stored.
func (s *recordStore) apply(e wire.Entry, owner hashkey.Key, now int64) bool {
	sh := s.shard(e.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.m[e.Key]; ok && old.live(now) && old.epoch > e.Epoch {
		return false
	}
	rec := storedLoc{owner: owner, expires: leaseEnd(now, e.TTLMilli), epoch: e.Epoch}
	if e.Key == owner {
		rec.addr = e.Addr
	}
	sh.m[e.Key] = rec
	return true
}

func (s *recordStore) get(k hashkey.Key) (storedLoc, bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	rec, ok := sh.m[k]
	sh.mu.Unlock()
	return rec, ok
}

func (s *recordStore) size() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

type epochShard struct {
	mu sync.Mutex
	m  map[hashkey.Key]uint64
}

// epochTable tracks, per subject, the newest epoch this node has
// ingested through TUpdate — the guard that keeps a delayed or
// duplicated push from regressing the cache/peers to a pre-move address.
type epochTable struct {
	shards [stateShards]epochShard
}

func (t *epochTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[hashkey.Key]uint64)
	}
}

func (t *epochTable) shard(k hashkey.Key) *epochShard {
	return &t.shards[uint64(k)&(stateShards-1)]
}

// observe admits epoch for key unless a strictly newer epoch was already
// ingested; admission records it and runs apply. Check, record and apply
// are one step under the key's shard lock, so two pushes racing on two
// connections' readers take effect in epoch order no matter the
// interleaving — in what apply writes and in what it hands the
// application. apply must not block.
func (t *epochTable) observe(k hashkey.Key, epoch uint64, apply func()) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seen, ok := sh.m[k]; ok && seen > epoch {
		return false
	}
	sh.m[k] = epoch
	apply()
	return true
}

func (t *epochTable) get(k hashkey.Key) uint64 {
	sh := t.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[k]
}

// handlePublishBatch ingests a publish — every publish is a batch — record
// by record, each under its own shard lock: concurrent discovers never
// stall behind the batch, and two batches for one publisher interleave per
// key with the epoch check breaking every tie. The sender's binding,
// m.Self, is ingested first, as its identity record, at every replica a
// batch reaches; an entry under the sender's own key stands for that
// record in the count, and every other entry is a key the sender owns,
// stored without an address. So a move is complete at this replica the
// moment the one identity record lands: every owned key answers with the
// new address from then on, and none can answer with an older one.
func (n *Node) handlePublishBatch(m *wire.Message) {
	now := monotime()
	bound := n.store.apply(m.Self, m.Self.Key, now)
	accepted := 0
	for i := range m.Entries {
		stored := bound
		if e := &m.Entries[i]; e.Key != m.Self.Key {
			stored = n.store.apply(*e, m.Self.Key, now)
		}
		if stored {
			accepted++
		}
	}
	n.countIngest(len(m.Entries), accepted)
	if n.cfg.Logger != nil {
		n.logf("batch publish from %v: %d records, %d accepted (epoch %d)",
			m.Self.Key, len(m.Entries), accepted, m.Self.Epoch)
	}
}

// countIngest classifies a batch of ingested records: every one was
// accepted or rejected as stale.
func (n *Node) countIngest(records, accepted int) {
	n.ctr.publishRecords.Add(uint64(records))
	n.ctr.publishAccepted.Add(uint64(accepted))
	n.ctr.publishStaleRejected.Add(uint64(records - accepted))
}

// handleDiscover answers a _discovery from this node's repository
// fragment (store) only. Serving an answer deliberately does NOT write
// the node's own location cache: the server merely relayed a record it
// owns — it expressed no interest in the key, and polluting its cache
// here would let third-party queries evict its own working set.
//
// An owned key is answered through its owner's identity record — one more
// read, of a second shard once the first is released, never both held —
// with the owner's address and epoch; either record's lapsed lease makes
// the answer not-found.
//
// The response carries the remaining lease, the shorter of the two for an
// owned key, so the querier's cache entry expires exactly when the
// repository's answer would — without it, late-binding results would
// never go stale client-side.
func (n *Node) handleDiscover(m *wire.Message) *wire.Message {
	now := monotime()
	rec, ok := n.store.get(m.Key)
	ttl := remainingTTLMilli(rec, now)
	if ok && rec.owner != m.Key && rec.live(now) {
		rec, ok = n.store.get(rec.owner)
		if own := remainingTTLMilli(rec, now); own != 0 && (ttl == 0 || own < ttl) {
			ttl = own
		}
	}
	resp := wire.GetMessage() // whoever takes the reply puts it back
	resp.Type, resp.Seq, resp.Key = wire.TDiscoverResp, m.Seq, m.Key
	if ok && rec.addr != "" && rec.live(now) {
		resp.Found = true
		resp.Self = wire.Entry{Key: m.Key, Addr: rec.addr, TTLMilli: ttl, Epoch: rec.epoch}
	}
	return resp
}

// remainingTTLMilli converts what is left of a stored record's lease at
// now into the wire's millisecond form: 0 means "no lease", so a
// live-but-nearly-done lease clamps up to 1ms rather than becoming
// immortal, and durations beyond the uint32 range saturate.
func remainingTTLMilli(rec storedLoc, now int64) uint32 {
	if rec.expires == 0 {
		return 0
	}
	ms := (rec.expires - now) / int64(time.Millisecond)
	switch {
	case ms < 1:
		return 1
	case ms > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(ms)
}

// handleUpdate ingests a proactive location push (early binding). The
// subject's new address belongs in the location *cache* — this node
// registered interest and learned where the subject moved — not in the
// repository (store): the pushing node is not publishing to us as an
// owner, and serving this hearsay to _discovery queries would bypass the
// replica placement. The write-through shares one source of truth with
// late-binding discover results.
func (n *Node) handleUpdate(m *wire.Message) {
	n.ctr.updatesReceived.Inc()
	// The push is applied under the epoch guard: one connection's pushes
	// arrive in order on its reader, but two relays' pushes about one
	// subject arrive on two readers, and must reach the cache and the
	// application's stream in epoch order, not in scheduling order.
	dropped := false
	applied := n.seen.observe(m.Self.Key, m.Self.Epoch, func() {
		// Epoch-aware write-through: belt and braces under the epochTable
		// guard — a concurrent discover fill for the same key races this
		// write, and the cache's own newest-epoch-wins breaks the tie.
		n.loc.PutEpoch(m.Self.Key, m.Self.Addr, time.Duration(m.Self.TTLMilli)*time.Millisecond, m.Self.Epoch)
		select {
		case n.updates <- Update{Key: m.Self.Key, Addr: m.Self.Addr}:
		default:
			dropped = true
		}
	})
	if !applied {
		// An out-of-order push (delayed or duplicated by the network): the
		// subject has already moved past this address. Applying it would
		// regress every resolver behind this node's cache — and recursing
		// would spread the regression down the delegated subtree.
		n.ctr.updatesStaleRejected.Inc()
		if n.cfg.Logger != nil {
			n.logf("rejected stale update: %v → %s (epoch %d, seen %d)",
				m.Self.Key, m.Self.Addr, m.Self.Epoch, n.seen.get(m.Self.Key))
		}
		return
	}
	n.ctr.updatesApplied.Inc()
	if dropped {
		// Applications that don't drain updates must not block the tree —
		// but the loss has to be observable, not silent.
		n.ctr.updatesDropped.Inc()
		n.logf("updates channel full; dropped update for %v (%s)", m.Self.Key, m.Self.Addr)
	}
	if n.cfg.Logger != nil {
		n.logf("location update: %v now at %s, delegating %d", m.Self.Key, m.Self.Addr, len(m.Entries))
	}
	// Re-advertise to the delegated subtree (Figure 4 recursion) on the
	// reader, in arrival order: a forward only enqueues on the heads'
	// sessions, which dial on their own, and copies what it sends from m.
	n.fanOut(n.runCtx, m.Self, m.Entries)
}
