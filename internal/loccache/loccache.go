// Package loccache is the lease-aware location cache behind the live
// stack's resolve hot path. It holds the <key, addr> state-pairs a node
// has *learned* about other nodes — pushed through dissemination trees
// (early binding) or fetched reactively via _discovery (late binding,
// Figure 2). A lookup either finds a live lease, which the caller serves
// without touching the network, or misses: no entry, or one whose lease
// has lapsed, and the caller goes to the network. A lapsed entry is
// dropped by the lookup that finds it.
//
// The cache is sharded by key. A lookup that finds a usable answer takes
// no lock and writes no memory another resolver writes: each shard's
// index is an array of bucket chains read with atomic loads, entries are
// immutable once linked, and recency is a per-entry flag a hit sets only
// when it is clear. Writers (fills, invalidations, evictions) serialise
// on the shard's mutex. Each shard is bounded and evicts with a CLOCK
// ring: the hand takes the first entry no hit has touched since it last
// passed.
package loccache

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
)

const (
	// numShards is the number of independently locked segments, a power of
	// two: the shard index is a mask, not a mod.
	numShards = 16
	// maxEntries bounds the whole cache, spread evenly across the shards.
	maxEntries = 4096
)

// Config is what a Cache is given. The zero value is usable.
type Config struct {
	// Clock overrides the clock, for tests; leases count from its first
	// reading. Nil reads the monotonic clock.
	Clock func() time.Time
	// Counters receives loccache.lookups/hit/miss/evicted
	// events; nil disables them.
	Counters *metrics.Counters
	// Gauges exposes loccache.entries; nil disables it.
	Gauges *metrics.Gauges
}

// pow2 rounds n up to a power of two.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// never is the expiry of an entry stored without a lease.
const never = math.MaxInt64

// entry is one cached state-pair. What a lookup answers from — key, addr,
// lease, epoch — never changes once the entry is linked into its bucket:
// a new binding for the key is a new entry, so a reader that found an
// entry uses it without a lock. The remaining fields are bookkeeping.
type entry struct {
	key     hashkey.Key
	addr    string
	expires int64  // the cache's clock (Cache.now) when the lease lapses, or never
	epoch   uint64 // publisher's move counter; 0 = unordered

	// next is the rest of the bucket chain. Writers change it under the
	// shard mutex; an unlinked entry keeps it, so a reader standing on the
	// entry walks on into the chain as it was, and the garbage collector
	// frees the entry once the last such reader has left.
	next atomic.Pointer[entry]
	// touched is a hit the clock hand has not passed yet. A hit sets it
	// only when it is clear; the hand clears it, which is the entry's
	// second chance.
	touched atomic.Bool
	// slot is the entry's index in its shard's ring, guarded by the shard
	// mutex.
	slot int
}

// expired reports whether e's lease has lapsed at instant now: a lookup
// misses it, and drops it.
func (e *entry) expired(now int64) bool { return now >= e.expires }

// used records a hit. On an entry already touched it writes nothing, so
// the entry's cache line stays shared between the processors reading it.
func (e *entry) used() {
	if !e.touched.Load() {
		e.touched.Store(true)
	}
}

// shard is one independently written segment. buckets indexes its entries
// by key: chains that writers change under mu and readers walk with
// atomic loads only, allocated on the first insert. ring holds the same
// entries, in no order, for the clock hand to sweep; ring and hand are
// guarded by mu.
type shard struct {
	mu      sync.Mutex
	ring    []*entry
	hand    int
	buckets atomic.Pointer[[]atomic.Pointer[entry]]
}

// Cache is a sharded, bounded, lease-aware location cache. All methods
// are safe for concurrent use.
type Cache struct {
	clock      func() time.Time // nil: the monotonic clock
	base       time.Time        // the instant now counts from
	shardMask  uint64
	shardBits  uint
	bucketMask uint64
	perShard   int
	shards     []shard

	hit, miss              *metrics.Counter
	evicted, epochRejected *metrics.Counter
	entries                *metrics.Gauge
}

// New builds a Cache from cfg.
func New(cfg Config) *Cache { return newCache(cfg, numShards, maxEntries/numShards) }

// newCache builds a Cache of nShards shards (a power of two) holding
// perShard entries each; tests build tiny ones to watch eviction.
func newCache(cfg Config, nShards, perShard int) *Cache {
	base := time.Now()
	if cfg.Clock != nil {
		base = cfg.Clock()
	}
	hit, miss := cfg.Counters.Counter("loccache.hit"), cfg.Counters.Counter("loccache.miss")
	cfg.Counters.Total("loccache.lookups", hit, miss)
	return &Cache{
		clock:      cfg.Clock,
		base:       base,
		shardMask:  uint64(nShards - 1),
		shardBits:  uint(bits.TrailingZeros(uint(nShards))),
		bucketMask: uint64(pow2(perShard) - 1),
		perShard:   perShard,
		shards:     make([]shard, nShards),

		hit:           hit,
		miss:          miss,
		evicted:       cfg.Counters.Counter("loccache.evicted"),
		epochRejected: cfg.Counters.Counter("loccache.epoch_rejected"),
		entries:       cfg.Gauges.Gauge("loccache.entries"),
	}
}

// now reads the clock as nanoseconds since the cache was built. A lookup
// only compares instants, so it reads the monotonic clock alone (time.Now
// would read the wall clock too), and a lease is one integer comparison.
func (c *Cache) now() int64 {
	if c.clock == nil {
		return int64(time.Since(c.base))
	}
	return int64(c.clock().Sub(c.base))
}

// shardOf picks the shard for key. Keys come from SHA-1 (hashkey), so
// the low bits are already uniformly distributed; the bits above them
// pick the bucket.
func (c *Cache) shardOf(key hashkey.Key) *shard {
	return &c.shards[uint64(key)&c.shardMask]
}

func (c *Cache) bucketOf(key hashkey.Key) uint64 {
	return uint64(key) >> c.shardBits & c.bucketMask
}

// find returns key's entry, or nil. It takes no lock. Every entry it
// visits was linked at some instant of the call: a replacement takes the
// old entry's place in the chain with one store and a removed entry keeps
// its next, so the walk never skips an entry that stayed linked.
func (c *Cache) find(key hashkey.Key) *entry {
	tbl := c.shardOf(key).buckets.Load()
	if tbl == nil {
		return nil
	}
	for e := (*tbl)[c.bucketOf(key)].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			return e
		}
	}
	return nil
}

// link returns the pointer that holds key's entry — its bucket's head or
// its predecessor's next — or, when the key is absent, the nil pointer
// that ends its chain. Caller holds s.mu. It allocates the buckets of a
// shard that has none, which only a store reaches: removals start from an
// entry they found.
func (c *Cache) link(s *shard, key hashkey.Key) *atomic.Pointer[entry] {
	tbl := s.buckets.Load()
	if tbl == nil {
		t := make([]atomic.Pointer[entry], c.bucketMask+1)
		tbl = &t
		s.buckets.Store(tbl)
	}
	p := &(*tbl)[c.bucketOf(key)]
	for e := p.Load(); e != nil && e.key != key; e = p.Load() {
		p = &e.next
	}
	return p
}

// Lookup returns key's cached address and true while its lease is live,
// or "" and false. A hit is marked touched, a second chance against the
// clock hand. Every call makes one counter add, loccache.hit or
// loccache.miss; loccache.lookups is their total, so the two partition
// the lookups by construction. Only a lookup that finds a lapsed entry
// takes the shard's lock, to drop it.
func (c *Cache) Lookup(key hashkey.Key) (string, bool) {
	e := c.find(key)
	if e == nil {
		c.miss.Inc()
		return "", false
	}
	// The clock is read after the entry was found, on every lookup that
	// found one: an answer is live as of an instant inside the call.
	if e.expired(c.now()) {
		c.remove(e)
		c.miss.Inc()
		return "", false
	}
	e.used()
	c.hit.Inc()
	return e.addr, true
}

// Peek is Lookup without promoting the entry, dropping it or recording
// metrics — a read-only probe for introspection (CachedAddr, tests).
func (c *Cache) Peek(key hashkey.Key) (string, bool) {
	e := c.find(key)
	if e == nil || e.expired(c.now()) {
		return "", false
	}
	return e.addr, true
}

// Put stores addr for key under a lease of ttl (0 = no expiry), replacing
// any previous entry; a replacement the clock hand is near is marked
// touched, as a hit would be.
func (c *Cache) Put(key hashkey.Key, addr string, ttl time.Duration) {
	c.store(&entry{key: key, addr: addr}, ttl, false)
}

// PutEpoch stores addr for key like Put, but carries the publisher's
// epoch and applies newest-epoch-wins: if the cached entry — lapsed or
// not, until a lookup drops it — has a strictly newer epoch, the write is
// rejected (counted as loccache.epoch_rejected) and the cache keeps the
// newer address. Reports whether the write was applied. Plain Put entries
// (epoch 0) never outrank an ordered write — absence of an ordering is
// not evidence of freshness.
func (c *Cache) PutEpoch(key hashkey.Key, addr string, ttl time.Duration, epoch uint64) bool {
	return c.store(&entry{key: key, addr: addr, epoch: epoch}, ttl, true)
}

// store starts e's lease and links it in place of any entry its key has,
// evicting one if the shard is full. ordered makes a cached entry of a
// newer epoch win instead.
func (c *Cache) store(e *entry, ttl time.Duration, ordered bool) bool {
	now := c.now()
	e.expires = never
	if end := now + int64(ttl); ttl > 0 && end > now { // else none, or too long to count
		e.expires = end
	}

	s := c.shardOf(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	p := c.link(s, e.key)
	old := p.Load()
	switch {
	case old == nil && len(s.ring) >= c.perShard:
		e.slot = s.victim()
		victim := s.ring[e.slot]
		c.link(s, victim.key).Store(victim.next.Load())
		c.evicted.Inc()
		if c.bucketOf(victim.key) == c.bucketOf(e.key) {
			p = c.link(s, e.key) // the victim may have been the end of this chain
		}
	case old == nil:
		if s.ring == nil {
			s.ring = make([]*entry, 0, c.perShard)
		}
		e.slot = len(s.ring)
		s.ring = append(s.ring, nil)
		c.entries.Add(1)
	case ordered && old.epoch > e.epoch:
		c.epochRejected.Inc()
		return false
	default:
		// Replace in place: the one store below swaps the binding, so the
		// key is never absent, and a reader standing on old walks on
		// through the next it keeps.
		e.next.Store(old.next.Load())
		e.slot = old.slot
		// A replacement counts as a use when the hand will reach its slot
		// within half a turn. Further off, a second chance would let it
		// outlive an insert made at the same moment by a turn.
		if n := len(s.ring); (e.slot-s.hand+n)%n < n/2 {
			e.touched.Store(true)
		}
	}
	p.Store(e)
	s.ring[e.slot] = e
	return true
}

// victim picks the slot of a full shard's entry to evict and moves the
// hand past it: the first untouched entry the hand reaches, clearing the
// touched entries it passes — their second chance. The sweep ends within
// one turn of the ring: by then it has cleared every bit. Caller holds
// s.mu.
func (s *shard) victim() int {
	n := len(s.ring)
	for v := s.hand; ; {
		e := s.ring[v]
		if !e.touched.Load() {
			s.hand = (v + 1) % n
			return v
		}
		e.touched.Store(false)
		if v++; v == n {
			v = 0
		}
	}
}

// remove drops e, the entry a lookup found dead under its key — only if
// it still is the key's entry: the lookup held no lock, so the key may
// have been filled again since.
func (c *Cache) remove(e *entry) {
	s := c.shardOf(e.key)
	s.mu.Lock()
	p := c.link(s, e.key)
	ok := p.Load() == e
	if ok {
		p.Store(e.next.Load())
		// Swap-remove, so the ring stays dense.
		last := len(s.ring) - 1
		moved := s.ring[last]
		s.ring[e.slot] = moved
		moved.slot = e.slot
		s.ring[last] = nil
		s.ring = s.ring[:last]
		if s.hand >= last {
			s.hand = 0
		}
	}
	s.mu.Unlock()
	if ok {
		c.entries.Add(-1)
	}
}

// Len reports the total number of entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}
