package live

// Regression tests for the epoch-ordered update paths and the batched
// publish. The handler-level tests are deterministic reproductions of
// the stale-address-resurrection bugs: before epochs, publish ingest and
// handleUpdate were last-writer-wins, so a frame the network delayed or
// duplicated past a newer binding would drag the repository (or a
// resolver's cache) back to a dead address.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// publishOf is the publish of one record as it arrives at a replica: a
// batch whose only entry is its sender's own.
func publishOf(e wire.Entry) *wire.Message {
	return &wire.Message{Type: wire.TPublishBatch, Self: e, Entries: []wire.Entry{e}}
}

// TestHandlePublishRejectsStaleEpoch replays the exact frame order a
// duplicated-and-delayed publish produces: the epoch-2 binding (addr B)
// lands first, then the epoch-1 ghost (addr A) arrives late. The store
// must keep B. Pre-fix, the second frame overwrote the first.
func TestHandlePublishRejectsStaleEpoch(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	n := mustNode(t, Config{Name: "owner", Capacity: 2, Counters: counters}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	key := hashkey.FromName("subject")
	n.handle(publishOf(wire.Entry{Key: key, Addr: "addr-B", Epoch: 2}))
	n.handle(publishOf(wire.Entry{Key: key, Addr: "addr-A", Epoch: 1}))

	resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key})
	if !resp.Found || resp.Self.Addr != "addr-B" {
		t.Fatalf("store resurrected stale address: got %q (found %v), want addr-B", resp.Self.Addr, resp.Found)
	}
	if resp.Self.Epoch != 2 {
		t.Fatalf("discover reported epoch %d, want 2", resp.Self.Epoch)
	}
	if got := counters.Get("publish.stale_rejected"); got != 1 {
		t.Fatalf("publish.stale_rejected = %d, want 1", got)
	}
	// An expired newer record no longer outranks anything: the ghost is
	// at least a reachable address from this key's past, while a lapsed
	// lease is a promise nobody renewed.
	key2 := hashkey.FromName("subject-2")
	n.handle(publishOf(wire.Entry{Key: key2, Addr: "addr-B", Epoch: 2, TTLMilli: 1}))
	time.Sleep(5 * time.Millisecond)
	n.handle(publishOf(wire.Entry{Key: key2, Addr: "addr-A", Epoch: 1, TTLMilli: 60000}))
	if resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key2}); !resp.Found || resp.Self.Addr != "addr-A" {
		t.Fatalf("expired record still outranks: got %q (found %v), want addr-A", resp.Self.Addr, resp.Found)
	}
}

// TestHandleUpdateRejectsStaleEpoch drives the early-binding path with
// the same out-of-order delivery: the epoch-3 push (addr C) first, then
// a duplicated epoch-2 push (addr B). The location cache may not regress,
// the subject never enters the ring, and the stale push must not recurse
// into the delegated subtree.
func TestHandleUpdateRejectsStaleEpoch(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	n := mustNode(t, Config{Name: "watcher", Capacity: 2, Counters: counters}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	subject := hashkey.FromName("mover")
	n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: subject, Addr: "addr-C", TTLMilli: 60000, Epoch: 3}})
	n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: subject, Addr: "addr-B", TTLMilli: 60000, Epoch: 2}})

	if addr, ok := n.CachedAddr(subject); !ok || addr != "addr-C" {
		t.Fatalf("cache resurrected stale address: got %q (ok %v), want addr-C", addr, ok)
	}
	for _, p := range n.KnownPeers() {
		if p.Key == subject {
			t.Fatalf("a pushed subject entered the ring: %+v", p)
		}
	}
	if got := counters.Get("updates.stale_rejected"); got != 1 {
		t.Fatalf("updates.stale_rejected = %d, want 1", got)
	}
	if got := counters.Get("updates.applied"); got != 1 {
		t.Fatalf("updates.applied = %d, want 1", got)
	}
	// The stale push must not have been delivered to the application.
	select {
	case u := <-n.Updates():
		if u.Addr != "addr-C" {
			t.Fatalf("application saw stale update %q", u.Addr)
		}
	default:
		t.Fatal("applied update was not delivered")
	}
	select {
	case u := <-n.Updates():
		t.Fatalf("stale update delivered to application: %+v", u)
	default:
	}
}

// TestRebindBumpsEpoch pins the ordering source itself: every rebind
// must advance the publish epoch, and the new self entry must carry it.
func TestRebindBumpsEpoch(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "mob"}, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	before := mob.Stats().Epoch
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	after := mob.Stats().Epoch
	if after <= before {
		t.Fatalf("rebind did not advance epoch: %d → %d", before, after)
	}
	if got := mob.SelfEntry().Epoch; got != after {
		t.Fatalf("self entry epoch %d, want %d", got, after)
	}
}

// TestPublishBatchRPCCountAndAtomicIngest is the tentpole's O(replicas)
// claim as a test: a node owning many keys re-homes all of them in at
// most one RPC per distinct replica address — not one per key — and
// every record is discoverable afterwards.
func TestPublishBatchRPCCountAndAtomicIngest(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	names := []string{"s1", "s2", "s3", "mob"}
	nodes := make(map[string]*Node, len(names))
	var started []*Node
	for _, name := range names {
		cfg := Config{Name: name, Capacity: 4, Mobile: name == "mob", RequestTimeout: time.Second, Counters: counters}
		nd := mustNode(t, cfg, mem)
		if err := nd.Start(""); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes[name] = nd
		started = append(started, nd)
	}
	defer func() {
		for _, nd := range started {
			nd.Close()
		}
	}()
	for _, nd := range started[1:] {
		if err := nd.JoinViaContext(context.Background(), started[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	mob := nodes["mob"]
	if err := mob.JoinViaContext(context.Background(), started[0].Addr()); err != nil {
		t.Fatal(err)
	}

	const numKeys = 200
	keys := make([]hashkey.Key, numKeys)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("res-%d", i))
	}
	mob.OwnKeys(keys...)

	before := counters.Get("publish.rpcs")
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rpcs := counters.Get("publish.rpcs") - before
	// 201 records × replication 2 across ≤3 stationary peers: the batch
	// must collapse to at most one frame per distinct replica address.
	if rpcs == 0 || rpcs > 3 {
		t.Fatalf("batched publish used %d RPCs, want 1..3 (O(replicas), not O(keys))", rpcs)
	}
	for _, k := range keys {
		addr, err := nodes["s1"].DiscoverContext(context.Background(), k)
		if err != nil {
			t.Fatalf("discover %v: %v", k, err)
		}
		if addr != mob.Addr() {
			t.Fatalf("key %v resolved to %q, want %q", k, addr, mob.Addr())
		}
	}
}

// frameTap records the type of every frame its node's sessions write, and
// the records of every TPublishBatch by the address it went to.
type frameTap struct {
	transport.Transport
	mu      sync.Mutex
	types   []wire.MsgType
	records map[string][]wire.Entry
}

func (t *frameTap) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := t.Transport.DialContext(ctx, addr)
	return &tapConn{Conn: c, tap: t, addr: addr}, err
}

type tapConn struct {
	transport.Conn
	tap  *frameTap
	addr string
}

func (c *tapConn) Queue(m *wire.Message) error {
	c.tap.mu.Lock()
	c.tap.types = append(c.tap.types, m.Type)
	if m.Type == wire.TPublishBatch {
		if c.tap.records == nil {
			c.tap.records = make(map[string][]wire.Entry)
		}
		c.tap.records[c.addr] = append(c.tap.records[c.addr], m.Entries...)
	}
	c.tap.mu.Unlock()
	return c.Conn.Queue(m)
}

// TestKeylessMobilePublishesOneBatchPerReplica: a mobile owning nothing
// beyond its identity key publishes the way every node does — one
// TPublishBatch, a batch of one, to each of its replicas, never the
// single-record frame — and ingest accounts for the record like any other:
// on every replica, records == accepted + stale_rejected.
func TestKeylessMobilePublishesOneBatchPerReplica(t *testing.T) {
	mem := transport.NewMem()
	ctx := context.Background()
	var stationaries []*Node
	ingest := map[*Node]*metrics.Counters{}
	for _, name := range []string{"s1", "s2", "s3"} {
		counters := metrics.NewCounters()
		nd := mustNode(t, Config{Name: name, Capacity: 4, Counters: counters}, mem)
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		if len(stationaries) > 0 {
			if err := nd.JoinViaContext(ctx, stationaries[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		stationaries = append(stationaries, nd)
		ingest[nd] = counters
	}
	tap := &frameTap{Transport: mem}
	counters := metrics.NewCounters()
	mob := mustNode(t, Config{Name: "mob", Mobile: true, Replication: 2, Counters: counters}, tap)
	if err := mob.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()
	if err := mob.JoinViaContext(ctx, stationaries[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if got := len(mob.members.snapshot().ring); got != 3 {
		t.Fatalf("mobile knows %d stationaries, want 3", got)
	}

	publishAndCount := func(wantAccepted, wantStale uint64) {
		t.Helper()
		if err := mob.PublishContext(ctx); err != nil {
			t.Fatal(err)
		}
		var records, accepted, stale uint64
		for nd, c := range ingest {
			r, a, s := c.Get("publish.records"), c.Get("publish.accepted"), c.Get("publish.stale_rejected")
			if r != a+s {
				t.Errorf("%s: publish.records %d != accepted %d + stale_rejected %d", nd.cfg.Name, r, a, s)
			}
			records, accepted, stale = records+r, accepted+a, stale+s
		}
		if rpcs := counters.Get("publish.rpcs"); rpcs != records || accepted != wantAccepted || stale != wantStale {
			t.Fatalf("publish.rpcs %d; replicas ingested %d records, %d accepted, %d stale; want %d accepted, %d stale, one record per RPC",
				rpcs, records, accepted, stale, wantAccepted, wantStale)
		}
	}
	publishAndCount(2, 0)
	// The same publication again, after a replica has heard of a later
	// binding: the batch of one is rejected there exactly as a record of a
	// larger batch would be.
	later := mob.SelfEntry()
	later.Epoch++
	owners, err := mob.ownersOf(mob.Key())
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range stationaries {
		if nd.Key() == owners[0].Key {
			nd.store.apply(later, later.Key, monotime())
		}
	}
	publishAndCount(3, 1)

	tap.mu.Lock()
	defer tap.mu.Unlock()
	batches := 0
	for _, typ := range tap.types {
		if typ == wire.TPublishBatch {
			batches++
		}
	}
	if batches != 4 {
		t.Errorf("%d TPublishBatch frames for two publications at replication 2, want 4", batches)
	}
}

// TestPublishedKeysFollowRebind: the whole point of the owned set — every
// owned key follows its owner's move, and the rebound epoch makes the new
// binding authoritative.
func TestPublishedKeysFollowRebind(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "s3", "mob"}, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	keys := []hashkey.Key{hashkey.FromName("obj-a"), hashkey.FromName("obj-b"), hashkey.FromName("obj-c")}
	mob.OwnKeys(keys...)
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	oldAddr := mob.Addr()
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if mob.Addr() == oldAddr {
		t.Fatal("rebind did not change address")
	}
	for _, k := range keys {
		addr, err := nodes["s1"].DiscoverContext(context.Background(), k)
		if err != nil {
			t.Fatalf("discover after rebind: %v", err)
		}
		if addr != mob.Addr() {
			t.Fatalf("owned key %v still at %q after rebind to %q", k, addr, mob.Addr())
		}
	}
}

// TestNoStaleResurrectionUnderDuplication runs the full stack over a
// duplicating, delaying link (no drops: every frame eventually arrives,
// possibly twice and late) through three rapid moves. Every stationary
// replica and the watcher's cache must settle on the final address —
// pre-epoch, a late duplicate of an earlier publish could win the race
// and stick, because nothing newer would ever displace it again. The
// mover's owned keys settle with it: a late duplicate of the full batch
// from before the moves re-arms their records, which name the mover, and
// cannot put back the address that batch was sent from.
func TestNoStaleResurrectionUnderDuplication(t *testing.T) {
	counters := metrics.NewCounters()
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Seed:      42,
		Duplicate: 0.5,
		DelayMin:  0,
		DelayMax:  10 * time.Millisecond,
	})
	names := []string{"s1", "s2", "s3", "mob", "watcher"}
	mobile := map[string]bool{"mob": true}
	nodes, cleanup := startChaosRing(t, faulty, names, mobile, counters)
	defer cleanup()

	mob, watcher := nodes["mob"], nodes["watcher"]
	owned := testKeys("obj", 32)
	mob.OwnKeys(owned...)
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := watcher.RegisterWithContext(context.Background(), mob.Addr()); err != nil {
		t.Fatal(err)
	}
	for move := 0; move < 3; move++ {
		if err := mob.RebindContext(context.Background(), ""); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
	}
	final := mob.Addr()
	// regressed names a replica that serves one of the mover's keys at
	// anything but the final binding.
	regressed := func() string {
		for _, k := range append(owned, mob.Key()) {
			owners, err := mob.ownersOf(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range owners {
				for _, nd := range nodes {
					if nd.Key() != o.Key {
						continue
					}
					if got, found := servedBy(nd, k); !found || got.Addr != final || got.Epoch != mob.Stats().Epoch {
						return fmt.Sprintf("%s serves key %v at (%q, epoch %d, found %v)", nd.cfg.Name, k, got.Addr, got.Epoch, found)
					}
				}
			}
		}
		return ""
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		addr, err := nodes["s1"].DiscoverContext(context.Background(), mob.Key())
		if err == nil && addr == final {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged on final address: got %q (%v), want %q", addr, err, final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for regressed() != "" {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged on (%q, epoch %d): %s", final, mob.Stats().Epoch, regressed())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Convergence must be sticky: duplicates of pre-move frames are still
	// in flight for a while; none may flip any replica back.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		addr, err := nodes["s1"].DiscoverContext(context.Background(), mob.Key())
		if err != nil {
			t.Fatalf("re-discover: %v", err)
		}
		if addr != final {
			t.Fatalf("stale address resurrected after convergence: %q, want %q", addr, final)
		}
		if bad := regressed(); bad != "" {
			t.Fatalf("stale binding resurrected after convergence: %s", bad)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr, ok := watcher.CachedAddr(mob.Key()); ok && addr != final {
		t.Fatalf("watcher cache pinned stale address %q, want %q", addr, final)
	}
}

// TestCloseUnblocksLDTFanOut: a node handling a TUpdate whose delegated
// subtree includes an unreachable peer re-advertises to it, and the peer's
// session parks in the dial. The dial is bounded by the node's lifetime,
// not by RequestTimeout alone: Close ends it, and returns promptly, leaking no
// goroutines.
func TestCloseUnblocksLDTFanOut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	mem := transport.NewMem()

	// A black hole: listening, never accepting, backlog pre-filled so any
	// further dial parks in the backlog wait.
	bl, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	for i := 0; i < 64; i++ {
		c, err := mem.Dial(bl.Addr())
		if err != nil {
			t.Fatalf("backlog fill %d: %v", i, err)
		}
		defer c.Close()
	}

	cfg := Config{Name: "relay", Capacity: 2, RequestTimeout: 20 * time.Second, RetryAttempts: 1}
	n := mustNode(t, cfg, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	sender := mustNode(t, Config{Name: "sender", Capacity: 1, RequestTimeout: time.Second}, mem)
	if err := sender.Start(""); err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Deliver, over the wire, an update that delegates the black hole to
	// the relay: its session to the black hole will park inside the dial.
	msg := &wire.Message{
		Type:    wire.TUpdate,
		Self:    wire.Entry{Key: hashkey.FromName("mover"), Addr: "mem:nowhere", Capacity: 1, Epoch: 1},
		Entries: []wire.Entry{{Key: hashkey.FromName("delegate"), Addr: bl.Addr(), Capacity: 1}},
	}
	if err := sender.oneWay(sender.runCtx, n.Addr(), msg); err != nil {
		t.Fatalf("send update: %v", err)
	}
	// Wait until the relay has ingested the update: ingest precedes the
	// fan-out whose dial is now parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-n.Updates():
		default:
		}
		if _, ok := n.CachedAddr(hashkey.FromName("mover")); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never ingested the update")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Under the 5 s bound of a dial a ctx does not end: a Close that did
	// not abort the dial would return only when that bound ended it.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close stalled %v behind the LDT fan-out (want prompt abort)", elapsed)
	}
	sender.Close()

	// No goroutine may outlive the nodes — the parked dial must have been
	// aborted, not abandoned.
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked mid-fan-out: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
