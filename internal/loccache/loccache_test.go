package loccache

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
)

// fakeClock is a settable clock for deterministic lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	fc.t = fc.t.Add(d)
	fc.mu.Unlock()
}

// drop removes key's entry, if it has one, the way a lookup that found it
// dead would.
func drop(c *Cache, key hashkey.Key) {
	if e := c.find(key); e != nil {
		c.remove(e)
	}
}

func TestLookupStates(t *testing.T) {
	fc := newFakeClock()
	ctrs := metrics.NewCounters()
	c := New(Config{Clock: fc.now, Counters: ctrs})
	k := hashkey.FromName("a")

	if _, st := c.Lookup(k); st != Miss {
		t.Fatalf("empty cache: state %v, want Miss", st)
	}

	c.Put(k, "addr1", 2*time.Second)
	if addr, st := c.Lookup(k); st != Fresh || addr != "addr1" {
		t.Fatalf("fresh lookup: %q %v", addr, st)
	}

	fc.advance(3 * time.Second) // lease lapsed
	if addr, st := c.Lookup(k); st != Miss || addr != "" {
		t.Fatalf("lapsed lookup: %q %v, want Miss", addr, st)
	}
	if c.Len() != 0 {
		t.Fatalf("lapsed entry not dropped: len %d", c.Len())
	}

	// Three calls above, each classified exactly once.
	for _, want := range []struct {
		name string
		n    uint64
	}{{"loccache.hit", 1}, {"loccache.miss", 2}, {"loccache.lookups", 3}} {
		if got := ctrs.Get(want.name); got != want.n {
			t.Errorf("%s = %d, want %d", want.name, got, want.n)
		}
	}
}

func TestNoTTLNeverExpires(t *testing.T) {
	fc := newFakeClock()
	c := New(Config{Clock: fc.now})
	k := hashkey.FromName("forever")
	c.Put(k, "addr", 0)
	fc.advance(1000 * time.Hour)
	if addr, st := c.Lookup(k); st != Fresh || addr != "addr" {
		t.Fatalf("no-TTL entry: %q %v, want Fresh", addr, st)
	}
}

// TestLeaseBoundariesToTheNanosecond: a lease is Fresh up to the last
// nanosecond before it lapses and a Miss from that instant; a lease too
// long to represent saturates to no expiry instead of wrapping into the
// past.
func TestLeaseBoundariesToTheNanosecond(t *testing.T) {
	const lease = 2 * time.Second
	for _, tc := range []struct {
		at   time.Duration
		want State
	}{
		{0, Fresh},
		{lease - 1, Fresh},
		{lease, Miss},
	} {
		fc := newFakeClock()
		c := New(Config{Clock: fc.now})
		k := hashkey.FromName("bounded")
		c.Put(k, "addr", lease)
		fc.advance(tc.at)
		if _, st := c.Peek(k); st != tc.want {
			t.Errorf("lease %v read at +%v: %v, want %v", lease, tc.at, st, tc.want)
		}
	}
	fc := newFakeClock()
	c := New(Config{Clock: fc.now})
	k := hashkey.FromName("endless")
	fc.advance(time.Hour)
	c.Put(k, "addr", math.MaxInt64)
	fc.advance(1000 * time.Hour)
	if _, st := c.Peek(k); st != Fresh {
		t.Fatalf("a lease past the clock's range read %v, want Fresh", st)
	}
}

// TestHitReadsTheClockOnce: a lookup that finds a usable entry reads the
// clock once, and one that finds nothing does not read it.
func TestHitReadsTheClockOnce(t *testing.T) {
	fc := newFakeClock()
	var reads atomic.Int64
	c := New(Config{Clock: func() time.Time { reads.Add(1); return fc.now() }})
	k := hashkey.FromName("hot")
	c.Put(k, "addr", time.Minute)
	reads.Store(0)
	if _, st := c.Lookup(k); st != Fresh || reads.Load() != 1 {
		t.Fatalf("a hit read the clock %d times (%v), want once", reads.Load(), st)
	}
	if _, st := c.Lookup(hashkey.FromName("cold")); st != Miss || reads.Load() != 1 {
		t.Fatalf("an empty lookup read the clock (%d reads, %v)", reads.Load()-1, st)
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	fc := newFakeClock()
	ctrs := metrics.NewCounters()
	// Single shard, capacity 4, so eviction order is fully observable.
	c := newCache(Config{Clock: fc.now, Counters: ctrs}, 1, 4)

	expired := hashkey.FromName("expired")
	c.Put(expired, "old", time.Second)
	var live []hashkey.Key
	for i := 0; i < 3; i++ {
		k := hashkey.FromName(fmt.Sprintf("live%d", i))
		live = append(live, k)
		c.Put(k, "addr", time.Hour)
	}
	// Touch the entry while it is live, so plain LRU would evict a live
	// one instead.
	if _, st := c.Lookup(expired); st != Fresh {
		t.Fatalf("setup: expected fresh, got %v", st)
	}
	fc.advance(2 * time.Second) // only "expired" has lapsed

	over := hashkey.FromName("overflow")
	c.Put(over, "new", time.Hour)

	if _, st := c.Peek(expired); st != Miss {
		t.Fatalf("expired entry survived eviction: %v", st)
	}
	for _, k := range live {
		if _, st := c.Peek(k); st != Fresh {
			t.Fatalf("live entry %v evicted: %v", k, st)
		}
	}
	if _, st := c.Peek(over); st != Fresh {
		t.Fatalf("inserted entry missing: %v", st)
	}
	if got := ctrs.Get("loccache.evicted"); got != 1 {
		t.Fatalf("loccache.evicted = %d, want 1", got)
	}
}

func TestEvictionFallsBackToLRU(t *testing.T) {
	fc := newFakeClock()
	c := newCache(Config{Clock: fc.now}, 1, 3)
	keys := []hashkey.Key{hashkey.FromName("k0"), hashkey.FromName("k1"), hashkey.FromName("k2")}
	for _, k := range keys {
		c.Put(k, "addr", time.Hour)
	}
	// Touch k0 so k1 becomes the LRU tail.
	c.Lookup(keys[0])
	c.Put(hashkey.FromName("k3"), "addr", time.Hour)
	if _, st := c.Peek(keys[1]); st != Miss {
		t.Fatalf("LRU tail k1 not evicted: %v", st)
	}
	if _, st := c.Peek(keys[0]); st != Fresh {
		t.Fatalf("recently used k0 evicted: %v", st)
	}
}

func TestEntriesGauge(t *testing.T) {
	g := metrics.NewGauges()
	c := New(Config{Gauges: g})
	a, b := hashkey.FromName("a"), hashkey.FromName("b")
	c.Put(a, "x", 0)
	c.Put(b, "y", 0)
	c.Put(a, "z", 0) // replace, not grow
	if got := g.Get("loccache.entries"); got != 2 {
		t.Fatalf("entries gauge %d, want 2", got)
	}
	drop(c, a)
	if got := g.Get("loccache.entries"); got != 1 {
		t.Fatalf("entries gauge after invalidate %d, want 1", got)
	}
}

func TestConcurrentShardAccess(t *testing.T) {
	c := newCache(Config{}, 16, 16)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := hashkey.FromName(fmt.Sprintf("key-%d", i%64))
				switch i % 4 {
				case 0:
					c.Put(k, "addr", time.Minute)
				case 1:
					c.Lookup(k)
				case 2:
					c.Put(k, "lapsed", time.Nanosecond)
				case 3:
					drop(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Fatalf("len %d exceeds distinct keys", n)
	}
}

func TestShardBoundHolds(t *testing.T) {
	c := newCache(Config{}, 4, 16)
	for i := 0; i < 10_000; i++ {
		c.Put(hashkey.FromName(fmt.Sprintf("k%d", i)), "addr", time.Minute)
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("cache grew to %d entries, bound is 64", n)
	}
}

// TestPutEpochNewestWins pins the stale-resurrection guard: a write
// carrying an older epoch than the cached positive entry is rejected
// (and counted), an equal or newer one replaces it, and unordered Put
// writes (epoch 0) never outrank an ordered entry through PutEpoch.
func TestPutEpochNewestWins(t *testing.T) {
	fc := newFakeClock()
	ctrs := metrics.NewCounters()
	c := New(Config{Clock: fc.now, Counters: ctrs})
	k := hashkey.FromName("mover")

	if !c.PutEpoch(k, "B", time.Minute, 2) {
		t.Fatal("first ordered write rejected")
	}
	// The delayed duplicate of the pre-move frame arrives late.
	if c.PutEpoch(k, "A", time.Minute, 1) {
		t.Fatal("older epoch accepted over newer")
	}
	if addr, st := c.Peek(k); st != Fresh || addr != "B" {
		t.Fatalf("after stale write: %q %v, want fresh B", addr, st)
	}
	if got := ctrs.Get("loccache.epoch_rejected"); got != 1 {
		t.Fatalf("epoch_rejected = %d, want 1", got)
	}
	// Same epoch re-applies (duplicate of the current frame: harmless).
	if !c.PutEpoch(k, "B", time.Minute, 2) {
		t.Fatal("equal epoch rejected")
	}
	// A newer move replaces.
	if !c.PutEpoch(k, "C", time.Minute, 3) {
		t.Fatal("newer epoch rejected")
	}
	if addr, _ := c.Peek(k); addr != "C" {
		t.Fatalf("newest write lost: %q", addr)
	}
	// An unordered write (epoch 0) through PutEpoch loses to an ordered one.
	if c.PutEpoch(k, "Z", time.Minute, 0) {
		t.Fatal("unordered write displaced an ordered entry")
	}
}

// TestPutEpochRemembersLapsedEpoch: epoch memory survives the lease
// lapsing — the guard holds until a lookup drops the entry — while the
// lapsed address itself reads as a Miss.
func TestPutEpochRemembersLapsedEpoch(t *testing.T) {
	fc := newFakeClock()
	c := New(Config{Clock: fc.now})
	k := hashkey.FromName("x")

	if !c.PutEpoch(k, "A", time.Second, 5) {
		t.Fatal("first ordered write rejected")
	}
	fc.advance(2 * time.Second) // lease lapsed, entry still present
	if c.PutEpoch(k, "OLD", time.Second, 4) {
		t.Fatal("lapsed entry lost its epoch memory")
	}
	if addr, st := c.Peek(k); st != Miss || addr != "" {
		t.Fatalf("lapsed peek: %q %v, want Miss", addr, st)
	}
	if _, st := c.Lookup(k); st != Miss {
		t.Fatalf("lapsed lookup: %v, want Miss", st)
	}
	if !c.PutEpoch(k, "OLD", time.Second, 4) {
		t.Fatal("a write was rejected after the lapsed entry was dropped")
	}
}

// TestHitTakesNoLock pins the hot path's contract: with the key's shard
// mutex held by someone else, a lookup that finds a usable entry still
// answers — and once one hit has touched the entry, a later hit, at
// whatever later instant, writes nothing to it: the entry's cache line
// stays shared between the processors reading it.
func TestHitTakesNoLock(t *testing.T) {
	fc := newFakeClock()
	c := New(Config{Clock: fc.now})
	k := hashkey.FromName("hot")
	c.Put(k, "addr", time.Minute)

	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if addr, st := c.Lookup(k); st != Fresh || addr != "addr" {
			t.Errorf("Lookup under a held shard lock: %q %v", addr, st)
		}
		if addr, st := c.Peek(k); st != Fresh || addr != "addr" {
			t.Errorf("Peek under a held shard lock: %q %v", addr, st)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a Fresh Lookup/Peek waited for the shard mutex")
	}

	e := c.find(k)
	image := func() [unsafe.Sizeof(entry{})]byte {
		return *(*[unsafe.Sizeof(entry{})]byte)(unsafe.Pointer(e))
	}
	before := image()
	fc.advance(5 * time.Second)
	if _, st := c.Lookup(k); st != Fresh {
		t.Fatalf("second hit: %v", st)
	}
	if image() != before {
		t.Error("a hit on an already-touched entry wrote to it")
	}
}

// TestTouchedKeyGetsSecondChance: a hit is applied to the LRU order by
// the eviction that reaches the entry, not by the hit — so it has to
// survive an eviction that does not reach it. k1 is hit, the next
// eviction takes the older k0, and the one after finds k1 at the tail,
// promotes it and takes the younger but untouched k2 instead.
func TestTouchedKeyGetsSecondChance(t *testing.T) {
	c := newCache(Config{}, 1, 4)
	var keys []hashkey.Key
	for i := 0; i < 6; i++ {
		keys = append(keys, hashkey.FromName(fmt.Sprintf("k%d", i)))
	}
	for _, k := range keys[:4] {
		c.Put(k, "addr", time.Hour)
	}
	c.Lookup(keys[1])
	c.Put(keys[4], "addr", time.Hour) // evicts k0
	c.Put(keys[5], "addr", time.Hour) // k1's second chance; evicts k2
	for i, want := range []State{Miss, Fresh, Miss, Fresh, Fresh, Fresh} {
		if _, st := c.Peek(keys[i]); st != want {
			t.Errorf("k%d: %v, want %v", i, st, want)
		}
	}
	// The chance is spent: untouched since, k1 goes once k3 and k4 have.
	for i := 6; i < 9; i++ {
		c.Put(hashkey.FromName(fmt.Sprintf("k%d", i)), "addr", time.Hour)
	}
	if _, st := c.Peek(keys[1]); st != Miss {
		t.Errorf("k1 kept a second chance it did not earn again: %v", st)
	}
}

// checkRing verifies that every entry on each shard's ring names its own
// slot and is the entry its key finds.
func checkRing(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j, sl := range s.ring {
			if sl.e.slot != j || sl.expires != sl.e.expires || c.find(sl.e.key) != sl.e {
				t.Errorf("shard %d slot %d: entry %v names slot %d, or is no longer its key's", i, j, sl.e.key, sl.e.slot)
			}
		}
		s.mu.Unlock()
	}
}

// TestLapsedDropsKeepRingDense drops lapsed entries from the middle of a
// full ring through Lookup, then fills past the bound: Len, the entries
// gauge and the bound agree throughout, and every live key stays found.
func TestLapsedDropsKeepRingDense(t *testing.T) {
	const bound = 8
	fc := newFakeClock()
	ctrs, gauges := metrics.NewCounters(), metrics.NewGauges()
	c := newCache(Config{Clock: fc.now, Counters: ctrs, Gauges: gauges}, 1, bound)
	key := func(i int) hashkey.Key { return hashkey.FromName(fmt.Sprintf("k%d", i)) }
	lapsing := map[int]bool{2: true, 3: true, 5: true}
	for i := 0; i < bound; i++ {
		ttl := time.Hour
		if lapsing[i] {
			ttl = time.Second
		}
		c.Put(key(i), "addr", ttl)
	}
	fc.advance(2 * time.Second)
	for i := range lapsing {
		if _, st := c.Lookup(key(i)); st != Miss {
			t.Fatalf("lapsed k%d: %v, want Miss", i, st)
		}
	}
	agree := func(want int) {
		t.Helper()
		if n, g := c.Len(), gauges.Get("loccache.entries"); n != want || g != int64(want) {
			t.Fatalf("Len %d, entries gauge %d, want %d", n, g, want)
		}
		checkRing(t, c)
	}
	agree(bound - len(lapsing))

	// Refill to the bound: the freed slots take the new keys, no eviction.
	for i := bound; i < bound+len(lapsing); i++ {
		c.Put(key(i), "addr", time.Hour)
	}
	agree(bound)
	if got := ctrs.Get("loccache.evicted"); got != 0 {
		t.Fatalf("refilling dropped slots evicted %d entries", got)
	}
	for i := 0; i < bound+len(lapsing); i++ {
		if _, st := c.Peek(key(i)); st != Fresh && !lapsing[i] {
			t.Errorf("live k%d: %v, want Fresh", i, st)
		}
	}

	// Past the bound each fill evicts one.
	const past = 5
	first := bound + len(lapsing)
	for i := first; i < first+past; i++ {
		c.Put(key(i), "addr", time.Hour)
	}
	agree(bound)
	if got := ctrs.Get("loccache.evicted"); got != past {
		t.Fatalf("loccache.evicted = %d after %d fills past the bound, want %d", got, past, past)
	}
	found := 0
	for i := 0; i < first+past; i++ {
		if _, st := c.Peek(key(i)); st == Fresh {
			found++
		}
	}
	if found != bound {
		t.Errorf("%d keys found in a cache of %d entries", found, bound)
	}
}

// TestAllTouchedEvictsInOneSweep: in a shard whose entries are all
// touched, the hand clears every bit in one turn of the ring and takes
// the first entry it comes back to.
func TestAllTouchedEvictsInOneSweep(t *testing.T) {
	const bound = 4
	ctrs := metrics.NewCounters()
	c := newCache(Config{Counters: ctrs}, 1, bound)
	var keys []hashkey.Key
	for i := 0; i < bound; i++ {
		keys = append(keys, hashkey.FromName(fmt.Sprintf("k%d", i)))
		c.Put(keys[i], "addr", time.Hour)
	}
	for _, k := range keys {
		c.Lookup(k)
	}
	c.Put(hashkey.FromName("new"), "addr", time.Hour)
	if got := ctrs.Get("loccache.evicted"); got != 1 {
		t.Fatalf("loccache.evicted = %d, want 1", got)
	}
	if _, st := c.Peek(keys[0]); st != Miss {
		t.Errorf("k0, first under the hand, survived: %v", st)
	}
	s := &c.shards[0]
	for j, sl := range s.ring {
		if sl.e.touched.Load() {
			t.Errorf("slot %d (%v) still touched after the sweep", j, sl.e.key)
		}
	}
	checkRing(t, c)
}

// TestEvictionOfTheChainsTail: the victim is the last entry of the chain
// the new key joins, where the new key was about to be linked; the new key
// must be linked behind the victim's predecessor instead.
func TestEvictionOfTheChainsTail(t *testing.T) {
	const bound = 4
	c := newCache(Config{}, 1, bound)
	// One shard of four buckets: keys that differ only above bit 1 share
	// bucket 0, linked in insertion order.
	key := func(i int) hashkey.Key { return hashkey.Key(i << 2) }
	for i := 0; i < bound; i++ {
		c.Put(key(i), "addr", time.Hour)
	}
	for i := 0; i < bound-1; i++ {
		c.Lookup(key(i)) // the hand passes these, and takes the tail
	}
	c.Put(key(bound), "addr", time.Hour)
	if _, st := c.Peek(key(bound - 1)); st != Miss {
		t.Fatalf("the chain's tail survived: %v", st)
	}
	if _, st := c.Peek(key(bound)); st != Fresh {
		t.Fatalf("the key that took the tail's place is lost: %v", st)
	}
	checkRing(t, c)
}

// TestReplacementIsAUseNearTheHand: rewriting a key's binding marks it
// touched only when the hand is within half a turn of its slot. A key
// replaced right after its insert goes when an insert of that moment would,
// not a turn later; one replaced just ahead of the hand is passed over.
func TestReplacementIsAUseNearTheHand(t *testing.T) {
	const bound = 4
	c := newCache(Config{}, 1, bound)
	key := func(i int) hashkey.Key { return hashkey.FromName(fmt.Sprintf("k%d", i)) }
	for i := 0; i <= bound; i++ {
		c.Put(key(i), "addr", time.Hour) // k4 evicts k0 and lands behind the hand
	}
	c.Put(key(bound), "again", time.Hour) // far from the hand: no second chance
	for i := bound + 1; i <= 2*bound; i++ {
		c.Put(key(i), "addr", time.Hour) // k5-k7 take k1-k3's slots, k8 takes k4's
	}
	if _, st := c.Peek(key(bound)); st != Miss {
		t.Fatalf("k%d, replaced right after its insert, outlived the inserts of its turn: %v", bound, st)
	}
	c.Put(key(5), "again", time.Hour) // the hand is on k5's slot: a use
	c.Put(key(9), "addr", time.Hour)
	for i, want := range map[int]State{5: Fresh, 6: Miss, 9: Fresh} {
		if _, st := c.Peek(key(i)); st != want {
			t.Errorf("k%d: %v, want %v", i, st, want)
		}
	}
}

// TestReadersNeverSeeTornState runs 8 lock-free readers against writers
// that replace, invalidate and overflow-evict entries of one bucket chain.
// Every address encodes its key and epoch, so a reader can tell an address
// that was never put for the key, and an epoch going backwards.
func TestReadersNeverSeeTornState(t *testing.T) {
	const bound = 8
	ctrs := metrics.NewCounters()
	c := newCache(Config{Counters: ctrs}, 1, bound)
	// One shard, eight buckets: keys that differ only above bit 3 share
	// bucket 0, so every operation below edits the chain readers walk.
	key := func(i int) hashkey.Key { return hashkey.Key(i << 3) }
	const (
		replaced = 1 // only ever replaced: must never read Miss
		flapped  = 2 // put and invalidated in turns
		overflow = 3 // first of the keys that push each other out
		nOver    = 32
	)
	addrOf := func(k, epoch int) string { return fmt.Sprintf("k%d@%d", k, epoch) }
	c.PutEpoch(key(replaced), addrOf(replaced, 1), time.Hour, 1)

	const rounds = 4000
	var stop atomic.Bool
	var calls atomic.Uint64 // the readers' Lookup calls
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() { // replaces one key; its overflow inserts are the only evictions
		defer writers.Done()
		for e := 2; e < rounds; e++ {
			if !c.PutEpoch(key(replaced), addrOf(replaced, e), time.Hour, uint64(e)) {
				t.Errorf("rising epoch %d rejected", e)
			}
			o := overflow + e%nOver
			c.PutEpoch(key(o), addrOf(o, e), time.Hour, uint64(e))
			if n := c.Len(); n > bound {
				t.Errorf("Len %d exceeds the bound %d", n, bound)
			}
		}
	}()
	go func() {
		defer writers.Done()
		for e := 1; e < rounds; e++ {
			c.PutEpoch(key(flapped), addrOf(flapped, e), time.Hour, uint64(e))
			drop(c, key(flapped))
		}
	}()
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			lastEpoch := make(map[int]int)
			check := func(k int, addr string, st State) {
				if st == Miss {
					if k == replaced {
						t.Errorf("reader %d: the replaced-only key read Miss", r)
					}
					return
				}
				var gotKey, epoch int
				if _, err := fmt.Sscanf(addr, "k%d@%d", &gotKey, &epoch); err != nil || gotKey != k || st != Fresh {
					t.Errorf("reader %d: key %d answered %q %v", r, k, addr, st)
					return
				}
				if epoch < lastEpoch[k] {
					t.Errorf("reader %d: key %d went back from epoch %d to %d", r, k, lastEpoch[k], epoch)
				}
				lastEpoch[k] = epoch
			}
			// The overflow keys are only peeked: a hit would earn them a
			// second chance, and eight touched entries around a freshly
			// replaced one make that one the eviction's rightful victim.
			for i := 0; !stop.Load(); i++ {
				for _, k := range []int{replaced, flapped} {
					addr, st := c.Lookup(key(k))
					calls.Add(1)
					check(k, addr, st)
				}
				for _, k := range []int{replaced, flapped, overflow + i%nOver} {
					addr, st := c.Peek(key(k))
					check(k, addr, st)
				}
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	n := calls.Load()
	outcomes := ctrs.Sum("loccache.hit", "loccache.miss")
	if n == 0 || n != outcomes {
		t.Fatalf("at rest: %d lookups made, hit+miss %d", n, outcomes)
	}
}

// BenchmarkLookupHit is one cache hit on one processor: one clock read, a
// bucket walk and one counter add. counters=on has counters and the
// entries gauge on as a node has them, counters=off has neither; the two
// differ by the instrumentation's cost on a hit.
func BenchmarkLookupHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"counters=on", Config{Counters: metrics.NewCounters(), Gauges: metrics.NewGauges()}},
		{"counters=off", Config{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(bc.cfg)
			hot := hashkey.FromName("hot")
			c.Put(hot, "addr", time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st := c.Lookup(hot); st != Fresh {
					b.Fatalf("lookup: %v", st)
				}
			}
		})
	}
}

// BenchmarkLookupHitParallel is the cache's share of a hot resolve from
// every processor at once, counters and the entries gauge on as a node
// has them: 90% of the lookups on one key, the rest spread over 256. It
// must not allocate, and — nothing on this path being shared and written
// — its ns/op should fall as processors are added.
func BenchmarkLookupHitParallel(b *testing.B) {
	c := New(Config{Counters: metrics.NewCounters(), Gauges: metrics.NewGauges()})
	hot := hashkey.FromName("hot")
	c.Put(hot, "addr", time.Hour)
	warm := make([]hashkey.Key, 256)
	for i := range warm {
		warm[i] = hashkey.FromName(fmt.Sprintf("warm-%d", i))
		c.Put(warm[i], "addr", time.Hour)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			k := hot
			if i%10 == 9 {
				k = warm[i/10%len(warm)]
			}
			if _, st := c.Lookup(k); st != Fresh {
				b.Errorf("lookup: %v", st)
				return
			}
		}
	})
}

// BenchmarkPutEvict is the fill layer's own rung: a write-through fill
// into a full cache of live leases, counters and the entries gauge on,
// each fill a new key that evicts one. It allocates only the entry.
func BenchmarkPutEvict(b *testing.B) {
	c := New(Config{Counters: metrics.NewCounters(), Gauges: metrics.NewGauges()})
	keys := make([]hashkey.Key, 16*maxEntries)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("fill-%d", i))
	}
	for _, k := range keys[:4*maxEntries] {
		c.PutEpoch(k, "addr", time.Hour, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutEpoch(keys[i%len(keys)], "addr", time.Hour, 1)
	}
}
