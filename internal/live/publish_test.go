package live

// Tests of the owner indirection: replicas resolve an owned key through
// its owner's identity record, so a move republishes one record per
// holder; what makes the next publish full instead; who repairs a holder
// that missed a binding; and that a failed publish does not cost the
// registrants the move.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// pubRing is a stationary ring, every node counting its own ingest, and
// one mobile publisher counting what it sends.
type pubRing struct {
	t      *testing.T
	tr     func(name string) transport.Transport
	cfg    Config // what every node shares; Name, Mobile and Counters are set per node
	ring   []*Node
	ingest map[*Node]*metrics.Counters
	mob    *Node
	sent   *metrics.Counters
}

func startPubRing(t *testing.T, tr func(name string) transport.Transport, stationaries int, cfg Config) *pubRing {
	t.Helper()
	r := &pubRing{t: t, tr: tr, cfg: cfg, ingest: map[*Node]*metrics.Counters{}, sent: metrics.NewCounters()}
	for i := 1; i <= stationaries; i++ {
		r.addStationary(fmt.Sprintf("s%d", i), "")
	}
	cfg.Name, cfg.Mobile, cfg.Counters = "mob", true, r.sent
	r.mob = mustNode(t, cfg, tr("mob"))
	if err := r.mob.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.mob.Close() })
	if err := r.mob.JoinViaContext(context.Background(), r.ring[0].Addr()); err != nil {
		t.Fatal(err)
	}
	r.gossip()
	return r
}

// addStationary starts a stationary node at listenAddr and joins it
// through the ring's first member.
func (r *pubRing) addStationary(name, listenAddr string) *Node {
	r.t.Helper()
	cfg := r.cfg
	cfg.Name, cfg.Counters = name, metrics.NewCounters()
	nd := mustNode(r.t, cfg, r.tr(name))
	if err := nd.Start(listenAddr); err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { nd.Close() })
	if len(r.ring) > 0 {
		if err := nd.JoinViaContext(context.Background(), r.ring[0].Addr()); err != nil {
			r.t.Fatal(err)
		}
	}
	r.ring = append(r.ring, nd)
	r.ingest[nd] = cfg.Counters
	return nd
}

// gossip runs anti-entropy until the mobile's view of the ring is every
// stationary's current binding.
func (r *pubRing) gossip() {
	r.t.Helper()
	rng := rand.New(rand.NewSource(1))
	current := func() bool {
		view := r.mob.members.snapshot().ring
		if len(view) != len(r.ring) {
			return false
		}
		for _, nd := range r.ring {
			self := nd.SelfEntry()
			i, known, _ := admit(view, self, hearsay, r.mob.key)
			if !known || view[i].Addr != self.Addr || view[i].Epoch != self.Epoch {
				return false
			}
		}
		return true
	}
	for round := 0; !current(); round++ {
		if round == 32 {
			r.t.Fatal("the mobile never learned the ring")
		}
		for _, nd := range append([]*Node{r.mob}, r.ring...) {
			_, _ = nd.GossipOnce(rng) // a partner that just left the ring fails; the next round picks another
		}
	}
}

func (r *pubRing) records() uint64 {
	var total uint64
	for _, c := range r.ingest {
		total += c.Get("publish.records")
	}
	return total
}

// move rebinds the mobile and returns what its publish cost: frames sent
// and records ingested around the ring.
func (r *pubRing) move() (rpcs, records uint64) {
	r.t.Helper()
	rpcs, records = r.sent.Get("publish.rpcs"), r.records()
	if err := r.mob.RebindContext(context.Background(), ""); err != nil {
		r.t.Fatalf("rebind: %v", err)
	}
	return r.sent.Get("publish.rpcs") - rpcs, r.records() - records
}

func (r *pubRing) holders() uint64 {
	r.mob.ownedMu.Lock()
	defer r.mob.ownedMu.Unlock()
	return uint64(len(r.mob.full.holders))
}

// replicasOf returns the ring nodes that replicate key, as the mobile
// places it.
func (r *pubRing) replicasOf(key hashkey.Key) []*Node {
	r.t.Helper()
	owners, err := r.mob.ownersOf(key)
	if err != nil {
		r.t.Fatal(err)
	}
	var out []*Node
	for _, o := range owners {
		for _, nd := range r.ring {
			if nd.Key() == o.Key {
				out = append(out, nd)
			}
		}
	}
	if len(out) != len(owners) {
		r.t.Fatalf("key %v: %d of its %d replicas are ring nodes", key, len(out), len(owners))
	}
	return out
}

// servedBy asks one replica directly, as a discover frame would.
func servedBy(nd *Node, key hashkey.Key) (wire.Entry, bool) {
	resp := nd.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key})
	defer wire.PutMessage(resp)
	return resp.Self, resp.Found
}

// wantEverywhere fails unless every replica of every key, asked directly,
// answers with the node's current binding.
func (r *pubRing) wantEverywhere(owner *Node, keys []hashkey.Key) {
	r.t.Helper()
	want := owner.SelfEntry()
	for _, k := range keys {
		for _, nd := range r.replicasOf(k) {
			got, found := servedBy(nd, k)
			if !found || got.Addr != want.Addr || got.Epoch != want.Epoch {
				r.t.Fatalf("key %v at replica %s: (%q, epoch %d, found %v), want (%q, epoch %d)",
					k, nd.cfg.Name, got.Addr, got.Epoch, found, want.Addr, want.Epoch)
			}
		}
	}
}

func testKeys(prefix string, count int) []hashkey.Key {
	keys := make([]hashkey.Key, count)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("%s-%d", prefix, i))
	}
	return keys
}

// TestMoveSendsOneRecordPerHolder: after one full publish a move costs one
// frame of one record per holder whether the mover owns nothing or ten
// thousand keys, and every owned key answers with the new address from
// every one of its replicas the instant RebindContext returns.
func TestMoveSendsOneRecordPerHolder(t *testing.T) {
	for _, owned := range []int{0, 100, 10000} {
		t.Run(fmt.Sprint(owned), func(t *testing.T) {
			r := startPubRing(t, shared(transport.NewMem()), 4, Config{Capacity: 4, RequestTimeout: time.Second})
			keys := testKeys("obj", owned)
			r.mob.OwnKeys(keys...)
			if err := r.mob.PublishContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			holders := r.holders()
			if want := uint64(len(r.ring)); owned == 0 {
				want = uint64(r.mob.cfg.Replication)
				if holders != want {
					t.Fatalf("a keyless publish reached %d holders, want its %d replicas", holders, want)
				}
			} else if holders != want {
				t.Fatalf("%d keys reached %d holders, want all %d stationaries", owned, holders, want)
			}
			for move := 0; move < 3; move++ {
				rpcs, records := r.move()
				if rpcs != holders || records != holders {
					t.Fatalf("move %d with %d owned keys: %d frames, %d records, want %d of each (one record per holder)",
						move, owned, rpcs, records, holders)
				}
				r.wantEverywhere(r.mob, keys[:min(len(keys), 500)])
				r.wantEverywhere(r.mob, []hashkey.Key{r.mob.Key()})
			}
		})
	}
}

// TestFullPublishBatchesPerHolder: a full publish sends each holder the
// binding and then, in key order, exactly the owned keys it replicates —
// at rings smaller than, equal to and larger than the replication factor.
func TestFullPublishBatchesPerHolder(t *testing.T) {
	const k = 2
	for _, size := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			mem := transport.NewMem()
			tap := &frameTap{Transport: mem}
			tr := func(name string) transport.Transport {
				if name == "mob" {
					return tap
				}
				return mem
			}
			r := startPubRing(t, tr, size, Config{Capacity: 4, Replication: k, RequestTimeout: time.Second})
			keys := testKeys("obj", 300)
			slices.Sort(keys)
			r.mob.OwnKeys(keys...)
			tap.mu.Lock()
			tap.records = nil
			tap.mu.Unlock()
			if err := r.mob.PublishContext(context.Background()); err != nil {
				t.Fatal(err)
			}

			self, ring := r.mob.SelfEntry(), r.mob.members.snapshot().ring
			want := make(map[string][]wire.Entry)
			for _, o := range replicas(nil, ring, self.Key, k, 0) {
				want[o.Addr] = []wire.Entry{self}
			}
			for _, key := range keys {
				for _, o := range replicas(nil, ring, key, k, 0) {
					if want[o.Addr] == nil {
						want[o.Addr] = []wire.Entry{self}
					}
					want[o.Addr] = append(want[o.Addr], wire.Entry{Key: key, TTLMilli: self.TTLMilli, Epoch: self.Epoch})
				}
			}
			tap.mu.Lock()
			defer tap.mu.Unlock()
			if len(tap.records) != len(want) {
				t.Fatalf("publish reached %d holders, want %d", len(tap.records), len(want))
			}
			for addr, recs := range want {
				if got := tap.records[addr]; !slices.Equal(got, recs) {
					t.Fatalf("holder %s got %d records, want %d: the binding, then its keys in key order", addr, len(got), len(recs))
				}
			}
		})
	}
}

// TestRebindFullPublishTriggers: the next move is full after OwnKeys, after
// DisownKeys, after a stationary joins, after one restarts at its old
// address, and once half the lease has run since the last full publish —
// and after nothing else.
func TestRebindFullPublishTriggers(t *testing.T) {
	const lease = 3 * time.Second
	r := startPubRing(t, shared(transport.NewMem()), 4, Config{Capacity: 4, RequestTimeout: time.Second, LeaseTTL: lease})
	keys := testKeys("obj", 64)
	r.mob.OwnKeys(keys[:48]...)
	if err := r.mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := func(what string, full bool) {
		t.Helper()
		_, records := r.move()
		if holders := r.holders(); full != (records > holders) {
			t.Fatalf("move after %s ingested %d records at %d holders, want full=%v", what, records, holders, full)
		}
	}
	want("the first publish", false)
	want("a move", false)

	r.mob.OwnKeys(keys[48:]...)
	want("OwnKeys", true)
	want("the full move OwnKeys caused", false)
	r.mob.DisownKeys(keys[:8]...)
	want("DisownKeys", true)
	keys = keys[8:]
	want("the full move DisownKeys caused", false)

	// What does not change what the replicas hold: another mobile in the
	// membership view, a registrant, the mover's own renewal.
	other := mustNode(t, Config{Name: "other", Mobile: true, Capacity: 1, RequestTimeout: time.Second, LeaseTTL: lease}, r.tr("other"))
	if err := other.Start(""); err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.JoinViaContext(context.Background(), r.ring[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := other.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := other.RegisterWithContext(context.Background(), r.mob.Addr()); err != nil {
		t.Fatal(err)
	}
	want("a mobile joining, publishing and registering", false)
	if err := r.mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want("the mover's own full publish", false)

	s5 := r.addStationary("s5", "")
	r.gossip()
	want("a stationary joining", true)
	want("the full move the join caused", false)

	addr := s5.Addr()
	s5.Close()
	r.ring = r.ring[:len(r.ring)-1]
	delete(r.ingest, s5)
	r.addStationary("s5", addr)
	r.gossip()
	want("a stationary restarting at its address", true)
	want("the full move the restart caused", false)
	r.wantEverywhere(r.mob, keys)

	time.Sleep(lease/2 + 20*time.Millisecond)
	want("half the lease", true)
	want("the full move the lease caused", false)
	r.wantEverywhere(r.mob, keys)
}

// TestHandOffFollowsNewOwner: a key one node disowns and another owns and
// publishes follows the new owner, and the old owner's later moves and
// publishes do not drag it back.
func TestHandOffFollowsNewOwner(t *testing.T) {
	r := startPubRing(t, shared(transport.NewMem()), 4, Config{Capacity: 4, RequestTimeout: time.Second})
	ctx := context.Background()
	a := r.mob
	b := mustNode(t, Config{Name: "mob-b", Mobile: true, Capacity: 4, RequestTimeout: time.Second}, r.tr("mob-b"))
	if err := b.Start(""); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.JoinViaContext(ctx, r.ring[0].Addr()); err != nil {
		t.Fatal(err)
	}
	handed, kept := testKeys("handed", 8), testKeys("kept", 8)
	a.OwnKeys(append(handed, kept...)...)
	if err := a.PublishContext(ctx); err != nil {
		t.Fatal(err)
	}
	r.move()
	r.wantEverywhere(a, append(handed, kept...))

	a.DisownKeys(handed...)
	b.OwnKeys(handed...)
	// B's move is its publish: its epoch is now the newest these keys have seen.
	if err := b.RebindContext(ctx, ""); err != nil {
		t.Fatal(err)
	}
	r.wantEverywhere(b, handed)
	r.wantEverywhere(a, kept)

	r.move() // full: A's owned set changed
	r.move() // one record
	if err := a.PublishContext(ctx); err != nil {
		t.Fatal(err)
	}
	r.wantEverywhere(b, handed)
	r.wantEverywhere(a, kept)
	if err := b.RebindContext(ctx, ""); err != nil {
		t.Fatal(err)
	}
	r.wantEverywhere(b, handed)
}

// TestOwnedAnswerHoldsTheShorterLease: an owned key is answered with the
// shorter of its own and its owner's remaining lease, and once the
// owner's identity record has lapsed it is not answered at all, however
// long its own lease still runs.
func TestOwnedAnswerHoldsTheShorterLease(t *testing.T) {
	n := mustNode(t, Config{Name: "replica", Capacity: 2}, transport.NewMem())
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	batch := func(owner string, ownerTTL uint32, key hashkey.Key, keyTTL uint32) {
		self := wire.Entry{Key: hashkey.FromName(owner), Addr: "addr-" + owner, TTLMilli: ownerTTL, Epoch: 1}
		n.handle(&wire.Message{Type: wire.TPublishBatch, Self: self,
			Entries: []wire.Entry{self, {Key: key, TTLMilli: keyTTL, Epoch: 1}}})
	}
	shortKey, shortOwner, unleased := hashkey.FromName("short-key"), hashkey.FromName("short-owner"), hashkey.FromName("unleased")
	batch("long", 60000, shortKey, 500)
	batch("brief", 300, shortOwner, 60000)
	batch("forever", 0, unleased, 0)

	for _, c := range []struct {
		key    hashkey.Key
		addr   string
		maxTTL uint32
	}{{shortKey, "addr-long", 500}, {shortOwner, "addr-brief", 300}} {
		got, found := servedBy(n, c.key)
		if !found || got.Addr != c.addr || got.TTLMilli == 0 || got.TTLMilli > c.maxTTL {
			t.Fatalf("key %v: (%q, ttl %d ms, found %v), want %q with a lease of at most %d ms",
				c.key, got.Addr, got.TTLMilli, found, c.addr, c.maxTTL)
		}
	}
	if got, found := servedBy(n, unleased); !found || got.TTLMilli != 0 {
		t.Fatalf("unleased key under an unleased owner: ttl %d ms, found %v, want found with no lease", got.TTLMilli, found)
	}

	time.Sleep(320 * time.Millisecond)
	if got, found := servedBy(n, shortOwner); found {
		t.Fatalf("owned key answered %q after its owner's identity record lapsed", got.Addr)
	}
	if _, found := servedBy(n, hashkey.FromName("brief")); found {
		t.Fatal("lapsed identity record still served")
	}
	if got, found := servedBy(n, shortKey); !found || got.Addr != "addr-long" {
		t.Fatalf("key under a live owner: (%q, found %v), want addr-long", got.Addr, found)
	}
}

// TestGhostFullBatchCannotRegressOwnedKeys replays, after a move, the full
// batch published before it: the owned records are re-armed (their epoch
// is the one the replica already holds), the binding in the ghost is
// rejected and counted, and every key still answers with the post-move
// address and epoch.
func TestGhostFullBatchCannotRegressOwnedKeys(t *testing.T) {
	counters := metrics.NewCounters()
	n := mustNode(t, Config{Name: "replica", Capacity: 2, Counters: counters}, transport.NewMem())
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	keys := testKeys("obj", 4)
	before := wire.Entry{Key: hashkey.FromName("mover"), Addr: "addr-A", TTLMilli: 60000, Epoch: 1}
	full := &wire.Message{Type: wire.TPublishBatch, Self: before, Entries: []wire.Entry{before}}
	for _, k := range keys {
		full.Entries = append(full.Entries, wire.Entry{Key: k, TTLMilli: 60000, Epoch: 1})
	}
	after := before
	after.Addr, after.Epoch = "addr-B", 2

	n.handle(full)
	n.handle(publishOf(after))
	n.handle(full) // the ghost
	for _, k := range append(keys, before.Key) {
		if got, found := servedBy(n, k); !found || got.Addr != "addr-B" || got.Epoch != 2 {
			t.Fatalf("key %v after the ghost: (%q, epoch %d, found %v), want (addr-B, epoch 2)", k, got.Addr, got.Epoch, found)
		}
	}
	records, accepted, stale := counters.Get("publish.records"), counters.Get("publish.accepted"), counters.Get("publish.stale_rejected")
	if want := uint64(2*len(full.Entries) + 1); records != want || accepted != want-1 || stale != 1 {
		t.Fatalf("ingested %d records, %d accepted, %d stale; want %d, %d and the ghost's one binding",
			records, accepted, stale, want, want-1)
	}
	// A full batch from before the owned records' own epoch is a ghost
	// throughout.
	n.handle(&wire.Message{Type: wire.TPublishBatch, Self: after, Entries: []wire.Entry{after, {Key: keys[0], TTLMilli: 60000, Epoch: 2}}})
	n.handle(full)
	if got := counters.Get("publish.stale_rejected"); got != 3 {
		t.Fatalf("publish.stale_rejected = %d, want 3: the ghost's binding twice and the one re-published key", got)
	}
}

// blackHoleConfig keeps a black-holed exchange short and the breaker out
// of the way: one attempt, and no amount of failures trips it.
func blackHoleConfig() Config {
	return Config{Capacity: 4, Replication: 2, RequestTimeout: 200 * time.Millisecond, RetryAttempts: 1, SuspicionThreshold: 1000}
}

// TestRebindPushesThoughPublishFails: with both replicas of the mover's key
// black-holed, a registrant still hears of the move inside one
// RequestTimeout — the push does not wait for the publish — and
// RebindContext reports the publish that failed.
func TestRebindPushesThoughPublishFails(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 7})
	r := startPubRing(t, faulty.Endpoint, 4, blackHoleConfig())
	ctx := context.Background()
	if err := r.mob.PublishContext(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := blackHoleConfig()
	cfg.Name = "registrant"
	reg := mustNode(t, cfg, faulty.Endpoint("registrant"))
	if err := reg.Start(""); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.RegisterWithContext(ctx, r.mob.Addr()); err != nil {
		t.Fatal(err)
	}

	var dark []string
	for _, nd := range r.replicasOf(r.mob.Key()) {
		dark = append(dark, nd.cfg.Name)
	}
	faulty.Partition("replicas-dark", []string{"mob"}, dark)
	start := time.Now()
	moved := make(chan error, 1)
	go func() { moved <- r.mob.RebindContext(ctx, "") }()
	select {
	case u := <-reg.Updates():
		if u.Key != r.mob.Key() || u.Addr != r.mob.Addr() {
			t.Fatalf("registrant heard %v at %q, want %v at %q", u.Key, u.Addr, r.mob.Key(), r.mob.Addr())
		}
		if elapsed := time.Since(start); elapsed >= cfg.RequestTimeout {
			t.Fatalf("registrant heard of the move after %v, behind the black-holed publish (RequestTimeout %v)", elapsed, cfg.RequestTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registrant never heard of the move")
	}
	if err := <-moved; err == nil {
		t.Fatal("RebindContext = nil with every replica of the mover's key black-holed")
	}
}

// TestHolderThatMissedABindingIsRepaired: a holder black-holed during a
// move misses the binding and the move still succeeds; the next move,
// with the holder healed, is full — the holder ingests its whole share —
// and from then on every replica of every owned key answers with the
// newest address.
func TestHolderThatMissedABindingIsRepaired(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 7})
	r := startPubRing(t, faulty.Endpoint, 4, blackHoleConfig())
	keys := testKeys("obj", 200)
	r.mob.OwnKeys(keys...)
	if err := r.mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rpcs, records := r.move(); rpcs != 4 || records != 4 {
		t.Fatalf("a clean move cost %d frames and %d records, want 4 and 4", rpcs, records)
	}
	dark := r.ring[2]
	share := uint64(1) // the binding leads its batch
	var darkKey hashkey.Key
	for _, k := range keys {
		for _, nd := range r.replicasOf(k) {
			if nd == dark {
				share++
				darkKey = k
			}
		}
	}
	if share < 20 {
		t.Fatalf("%s replicates %d of %d keys: too few to tell a full batch by", dark.cfg.Name, share-1, len(keys))
	}

	faulty.Partition("holder-dark", []string{"mob"}, []string{dark.cfg.Name})
	missed := r.ingest[dark].Get("publish.records")
	r.move() // fails the test if RebindContext errs: three holders, one of them the mover's replica, got the binding
	if got := r.ingest[dark].Get("publish.records"); got != missed {
		t.Fatalf("the black-holed holder ingested %d records", got-missed)
	}
	if got, found := servedBy(dark, darkKey); !found || got.Addr == r.mob.Addr() {
		t.Fatalf("the black-holed holder serves %q (found %v), want the address from before the move it missed", got.Addr, found)
	}

	faulty.Heal("holder-dark")
	r.move()
	if got := r.ingest[dark].Get("publish.records") - missed; got != share {
		t.Fatalf("the healed holder ingested %d records on the next move, want its whole share of %d", got, share)
	}
	r.wantEverywhere(r.mob, keys)
	if rpcs, records := r.move(); rpcs != 4 || records != 4 {
		t.Fatalf("the move after the repair cost %d frames and %d records, want 4 and 4", rpcs, records)
	}
	r.wantEverywhere(r.mob, keys)
}
