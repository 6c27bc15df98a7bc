package live

import (
	"cmp"
	"context"
	"errors"
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

// refMembers is the membership table as a map written one entry at a
// time — what the table was before it became one slice written once per
// frame, kept as the reference the slice is compared against. Like the
// table, it never admits a mobile.
type refMembers struct {
	self  hashkey.Key
	byKey map[hashkey.Key]wire.Entry
}

func (r *refMembers) update(e wire.Entry) {
	if cur, ok := r.byKey[e.Key]; e.Mobile || ok && (cur.Epoch > e.Epoch || cur == e) {
		return
	}
	r.byKey[e.Key] = e
}

func (r *refMembers) merge(e wire.Entry) {
	if e.Mobile || e.Key == r.self {
		return
	}
	if cur, ok := r.byKey[e.Key]; ok && e.Epoch <= cur.Epoch {
		return
	}
	r.byKey[e.Key] = e
}

// ring returns what a memberView of the map holds: every entry, ascending
// by key.
func (r *refMembers) ring() (ring []wire.Entry) {
	for _, e := range r.byKey {
		ring = append(ring, e)
	}
	slices.SortFunc(ring, func(a, b wire.Entry) int { return cmp.Compare(a.Key, b.Key) })
	return ring
}

// TestMembershipMatchesEntryAtATimeReference drives seeded random frames
// of direct and hearsay entries through the one writer and, entry by
// entry, through the map-based reference. Keys, epochs and addresses are
// drawn from ranges small enough that one frame repeats a key, names the
// node itself, and carries equal and older epochs than the table holds.
func TestMembershipMatchesEntryAtATimeReference(t *testing.T) {
	const self = hashkey.Key(3)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m membership
		m.init(self)
		ref := &refMembers{self: self, byKey: make(map[hashkey.Key]wire.Entry)}
		for frame := 0; frame < 300; frame++ {
			from := source(rng.Intn(2) == 0)
			entries := make([]wire.Entry, rng.Intn(10))
			for i := range entries {
				entries[i] = wire.Entry{
					Key:      hashkey.Key(rng.Intn(12)),
					Addr:     fmt.Sprintf("addr-%d", rng.Intn(3)),
					Capacity: float64(1 + rng.Intn(2)),
					Mobile:   rng.Intn(3) == 0,
					Epoch:    uint64(rng.Intn(6)),
				}
			}
			before := m.snapshot()
			m.apply(from, entries...)
			for _, e := range entries {
				if from == hearsay {
					ref.merge(e)
				} else {
					ref.update(e)
				}
			}
			after := m.snapshot()
			if ring := ref.ring(); !slices.Equal(after.ring, ring) {
				t.Fatalf("seed %d frame %d (hearsay=%v) %v:\n ring %v\n want %v",
					seed, frame, from, entries, after.ring, ring)
			}
			if after.gen-before.gen > 1 {
				t.Fatalf("seed %d frame %d: %d swaps for one frame", seed, frame, after.gen-before.gen)
			}
		}
	}
}

// TestJoinAdoptsDirectoryInOneView: a frame is one swap of the membership
// view however many entries it carries — a join's 64-stationary directory,
// a leaf-exchange request and a gossip reply each publish exactly one new
// view (one per entry before the table was written a frame at a time).
func TestJoinAdoptsDirectoryInOneView(t *testing.T) {
	mem := transport.NewMem()
	boot := mustNode(t, Config{Name: "boot", Capacity: 2}, mem)
	if err := boot.Start(""); err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	const ring = 64
	directory := []wire.Entry{boot.SelfEntry()}
	for i := 1; i < ring; i++ {
		name := fmt.Sprintf("stationary-%d", i)
		directory = append(directory, wire.Entry{Key: hashkey.FromName(name), Addr: "mem:" + name, Capacity: 1, Epoch: 1})
	}
	swaps := func(n *Node, frame func()) int {
		before := n.members.snapshot().gen
		frame()
		return n.members.snapshot().gen - before
	}
	if got := swaps(boot, func() { boot.handleLeafExchange(&wire.Message{Type: wire.TLeafExchange, Entries: directory}) }); got != 1 {
		t.Fatalf("a leaf exchange of %d entries swapped the view %d times, want 1", ring, got)
	}

	joiner := mustNode(t, Config{Name: "joiner", Capacity: 1, Mobile: true}, mem)
	if err := joiner.Start(""); err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if got := swaps(joiner, func() {
		if err := joiner.JoinViaContext(context.Background(), boot.Addr()); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("joining a %d-stationary ring swapped the view %d times, want 1", ring, got)
	}
	if got := len(joiner.members.snapshot().ring); got != ring {
		t.Fatalf("joiner knows %d stationaries, want %d", got, ring)
	}

	// A stationary that knows only boot has boot for its gossip partner.
	gossiper := mustNode(t, Config{Name: "gossiper", Capacity: 1}, mem)
	if err := gossiper.Start(""); err != nil {
		t.Fatal(err)
	}
	defer gossiper.Close()
	gossiper.members.apply(direct, boot.SelfEntry())
	learned := 0
	if got := swaps(gossiper, func() {
		var err error
		if learned, err = gossiper.GossipOnce(rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
	}); got != 1 || learned != ring-1 {
		t.Fatalf("a gossip reply swapped the view %d times and taught %d entries, want 1 and %d", got, learned, ring-1)
	}
	// A frame with no news publishes nothing.
	if got := swaps(joiner, func() { joiner.members.apply(hearsay, directory...) }); got != 0 {
		t.Fatalf("a directory of known entries swapped the view %d times, want 0", got)
	}
}

// TestMobilesNeverEnterTheRing: a mobile fleet that joins, gossips,
// publishes and pushes its moves leaves every ring as it found it, so a
// join reply and a leaf-exchange reply carry the stationaries and nothing
// else, however many mobiles there are.
func TestMobilesNeverEnterTheRing(t *testing.T) {
	ctx := context.Background()
	names := []string{"s1", "s2", "s3"}
	mobile := map[string]bool{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("m%02d", i)
		names = append(names, name)
		mobile[name] = true
	}
	nodes, cleanup := startCluster(t, names, mobile, nil)
	defer cleanup()
	s1 := nodes["s1"]
	for name, nd := range nodes {
		if !mobile[name] {
			continue
		}
		if err := s1.RegisterWithContext(ctx, nd.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := nd.PublishContext(ctx); err != nil {
			t.Fatal(err)
		}
		if err := nd.RebindContext(ctx, ""); err != nil { // publishes and pushes to s1
			t.Fatal(err)
		}
	}
	waitFor(t, "every move's push to reach s1", func() bool {
		for name, nd := range nodes {
			if addr, ok := s1.CachedAddr(nd.Key()); mobile[name] && (!ok || addr != nd.Addr()) {
				return false
			}
		}
		return true
	})
	for name, nd := range nodes {
		if got := nd.Stats().Peers; got != 3 {
			t.Errorf("%s's ring holds %d entries, want the 3 stationaries", name, got)
		}
	}
	late := wire.Entry{Key: hashkey.FromName("late"), Addr: "mem:late", Mobile: true, Epoch: 1}
	for what, resp := range map[string]*wire.Message{
		"join reply":          s1.handleJoin(&wire.Message{Type: wire.TJoin, Self: late}),
		"leaf-exchange reply": s1.handleLeafExchange(&wire.Message{Type: wire.TLeafExchange, Entries: []wire.Entry{late}}),
	} {
		if len(resp.Entries) != 3 || slices.ContainsFunc(resp.Entries, func(e wire.Entry) bool { return e.Mobile }) {
			t.Errorf("%s carries %v, want the 3 stationaries", what, resp.Entries)
		}
	}
}

// TestRegistryKeepsNewestEpoch: R(self) is newest-epoch-wins like every
// other table. A TRegister from before its registrant moved — delayed or
// duplicated on the way — must not put the old address back, nor touch
// the lease; the same epoch again renews the lease.
func TestRegistryKeepsNewestEpoch(t *testing.T) {
	n := mustNode(t, Config{Name: "target", Capacity: 2, Mobile: true}, transport.NewMem())
	reg := wire.Entry{Key: hashkey.FromName("registrant"), Addr: "addr-new", Capacity: 1, TTLMilli: 60_000, Mobile: true, Epoch: 2}
	n.handleRegister(&wire.Message{Type: wire.TRegister, Self: reg})
	held := func() registration {
		n.registry.mu.Lock()
		defer n.registry.mu.Unlock()
		return n.registry.m[reg.Key]
	}
	first := held()

	ghost := reg
	ghost.Addr, ghost.Epoch, ghost.TTLMilli = "addr-old", 1, 3_600_000
	if resp := n.handleRegister(&wire.Message{Type: wire.TRegister, Self: ghost}); !resp.Found {
		t.Fatal("a stale register was refused instead of ignored")
	}
	if got := held(); got != first {
		t.Fatalf("an epoch-1 register displaced the epoch-2 one: %+v, want %+v", got, first)
	}
	if got := n.Registry(); len(got) != 1 || got[0].Addr != "addr-new" {
		t.Fatalf("Registry() = %v, want the epoch-2 address only", got)
	}

	time.Sleep(2 * time.Millisecond)
	n.handleRegister(&wire.Message{Type: wire.TRegister, Self: reg})
	if got := held(); got.expires <= first.expires {
		t.Fatalf("an equal-epoch register did not renew the lease: %v, first %v", got.expires, first.expires)
	}
}

// TestRegistryShedsWhenFull: R(self) holds at most its bound. A renewal or
// a newer epoch of a held registrant always lands; a new registrant
// finding the table full takes the room of a lapsed lease, and with none
// lapsed is shed — counted, and reported to the registrant as
// ErrOverloaded.
func TestRegistryShedsWhenFull(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	target := mustNode(t, Config{Name: "target", Capacity: 2, Counters: counters}, mem)
	target.registry.init(2)
	if err := target.Start(""); err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	register := func(name string, lease time.Duration) error {
		nd := mustNode(t, Config{Name: name, Capacity: 1, LeaseTTL: lease}, mem)
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd.RegisterWithContext(context.Background(), target.Addr())
	}
	const short = 200 * time.Millisecond
	if err := register("short", short); err != nil {
		t.Fatal(err)
	}
	if err := register("long", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := register("refused", time.Hour); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a third registrant on a full R(self) got %v, want ErrOverloaded", err)
	}
	if got := counters.Get("registry.shed"); got != 1 {
		t.Fatalf("registry.shed = %d, want 1", got)
	}
	renewal := target.Registry()[0]
	renewal.Epoch++
	if resp := target.handleRegister(&wire.Message{Type: wire.TRegister, Self: renewal}); !resp.Found {
		t.Fatal("a held registrant's newer epoch was shed")
	}
	time.Sleep(short + 50*time.Millisecond) // "short" lapses
	if err := register("admitted", time.Hour); err != nil {
		t.Fatalf("a registrant was refused though a lease had lapsed: %v", err)
	}
	if got := target.Stats().Registrations; got != 2 {
		t.Fatalf("R(self) holds %d, want its bound of 2", got)
	}
}

// TestRegistryListsLiveSortedAndSweepsInPlace pins the table itself: live
// lists unlapsed leases ascending by key whatever order they arrived in,
// and sweep deletes the lapsed ones and counts them.
func TestRegistryListsLiveSortedAndSweepsInPlace(t *testing.T) {
	var reg registryTable
	reg.init(registryMax)
	now := monotime()
	for _, k := range []hashkey.Key{9, 2, 7, 4} {
		reg.put(registration{entry: wire.Entry{Key: k}}) // no lease
	}
	for _, k := range []hashkey.Key{8, 1} {
		reg.put(registration{entry: wire.Entry{Key: k}, expires: leaseEnd(now, 1000)})
	}
	keys := func(at int64) (ks []hashkey.Key) {
		for _, e := range reg.live(at) {
			ks = append(ks, e.Key)
		}
		return ks
	}
	if got, want := keys(now), []hashkey.Key{1, 2, 4, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
	later := now + int64(2*time.Second)
	if got, want := keys(later), []hashkey.Key{2, 4, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("live after the leases lapsed = %v, want %v", got, want)
	}
	if reg.size() != 6 {
		t.Fatalf("size = %d before the sweep, want 6", reg.size())
	}
	if got := reg.sweep(now); got != 0 {
		t.Fatalf("sweep removed %d unlapsed registrations", got)
	}
	if got := reg.sweep(later); got != 2 || reg.size() != 4 {
		t.Fatalf("sweep removed %d and left %d, want 2 and 4", got, reg.size())
	}
}
