package live

// White-box tests for proximity-aware replica selection: the contact order
// (suspicion outranks RTT), unmeasured peers contacted first,
// and the sharded RTT estimator table.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

func entries(addrs ...string) []wire.Entry {
	out := make([]wire.Entry, len(addrs))
	for i, a := range addrs {
		out[i] = wire.Entry{Addr: a}
	}
	return out
}

func addrsOf(es []wire.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Addr
	}
	return out
}

// TestOrderReplicas drives OrderContacts, the one contact order: a peer
// missing from the case's table is healthy and unmeasured.
func TestOrderReplicas(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	cases := []struct {
		name string
		in   []string
		of   map[string]Contact
		want []string
	}{
		{
			name: "ascending RTT",
			in:   []string{"c", "a", "b"},
			of:   map[string]Contact{"a": {RTT: ms(1)}, "b": {RTT: ms(2)}, "c": {RTT: ms(3)}},
			want: []string{"a", "b", "c"},
		},
		{
			name: "suspects last regardless of RTT",
			in:   []string{"fast-dead", "slow-live"},
			of:   map[string]Contact{"fast-dead": {Suspect: true, RTT: ms(1)}, "slow-live": {RTT: ms(50)}},
			want: []string{"slow-live", "fast-dead"},
		},
		{
			name: "suspects keep RTT order among themselves",
			in:   []string{"s-far", "ok", "s-near"},
			of:   map[string]Contact{"s-far": {Suspect: true, RTT: ms(9)}, "ok": {RTT: ms(5)}, "s-near": {Suspect: true, RTT: ms(2)}},
			want: []string{"ok", "s-near", "s-far"},
		},
		{
			name: "no data preserves input (key-distance) order",
			in:   []string{"x", "y", "z"},
			want: []string{"x", "y", "z"},
		},
		{
			name: "missing eff sorts first but stably",
			in:   []string{"measured", "unknown1", "unknown2"},
			of:   map[string]Contact{"measured": {RTT: ms(4)}},
			want: []string{"unknown1", "unknown2", "measured"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := entries(tc.in...)
			OrderContacts(got, func(e wire.Entry) Contact { return tc.of[e.Addr] })
			if fmt.Sprint(addrsOf(got)) != fmt.Sprint(tc.want) {
				t.Errorf("OrderContacts(%v) = %v, want %v", tc.in, addrsOf(got), tc.want)
			}
		})
	}
}

// TestSelectReplicasRegionDiversity: under region-striped placement
// every record's replica set spans min(k, regions) distinct regions, the
// diversified set still takes the closest candidate of each region, and
// regions < 2 degrades to plain k-closest.
func TestSelectReplicasRegionDiversity(t *testing.T) {
	regions := []string{"east", "west", "south"}
	arc := hashkey.FullRing()
	cands := make([]wire.Entry, 0, 90)
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("s-%d", i)
		cands = append(cands, wire.Entry{
			Key:  hashkey.RegionStriped(arc, name, regions[i%3], regions),
			Addr: name,
		})
	}
	for q := 0; q < 50; q++ {
		key := hashkey.FromName(fmt.Sprintf("record-%d", q))

		plain := SelectReplicas(append([]wire.Entry(nil), cands...), key, 3, 0)
		byDist := append([]wire.Entry(nil), cands...)
		sort.Slice(byDist, func(i, j int) bool { return hashkey.Closer(key, byDist[i].Key, byDist[j].Key) })
		for i := range plain {
			if plain[i].Addr != byDist[i].Addr {
				t.Fatalf("record %d: regions=0 selection diverges from plain k-closest at %d", q, i)
			}
		}

		div := SelectReplicas(append([]wire.Entry(nil), cands...), key, 3, 3)
		seen := map[int]bool{}
		for _, e := range div {
			ri := hashkey.RegionIndex(arc, e.Key, 3)
			if seen[ri] {
				t.Fatalf("record %d: replica set repeats region %d: %v", q, ri, div)
			}
			seen[ri] = true
		}
		// Each member is the closest candidate of its own region.
		for _, e := range div {
			ri := hashkey.RegionIndex(arc, e.Key, 3)
			for _, c := range byDist {
				if hashkey.RegionIndex(arc, c.Key, 3) != ri {
					continue
				}
				if c.Addr != e.Addr {
					t.Fatalf("record %d: region %d replica %s is not its region's closest (%s)", q, ri, e.Addr, c.Addr)
				}
				break
			}
		}
		// The region-diverse set must be deterministic across callers: a
		// second computation over a reshuffled candidate slice agrees.
		shuffled := append([]wire.Entry(nil), cands...)
		for i := range shuffled {
			j := (i * 37) % len(shuffled)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		again := SelectReplicas(shuffled, key, 3, 3)
		for i := range div {
			if div[i].Addr != again[i].Addr {
				t.Fatalf("record %d: selection depends on candidate order: %v vs %v", q, addrsOf(div), addrsOf(again))
			}
		}
	}
	// k beyond the region count fills the tail with the closest
	// passed-over candidates, still leading with one per region.
	key := hashkey.FromName("wide-record")
	wide := SelectReplicas(append([]wire.Entry(nil), cands...), key, 5, 3)
	if len(wide) != 5 {
		t.Fatalf("k=5 selection returned %d replicas", len(wide))
	}
	lead := map[int]bool{}
	for _, e := range wide[:3] {
		lead[hashkey.RegionIndex(arc, e.Key, 3)] = true
	}
	if len(lead) != 3 {
		t.Fatalf("k=5 selection's first 3 replicas span %d regions, want 3", len(lead))
	}
}

// TestPeerHealthExploresUnknownPeers pins the exploration policy: an
// unmeasured replica ranks at zero, so it leads owners — every fan-out,
// no draw involved — until one exchange measures it, and from then on it
// ranks by its estimate.
func TestPeerHealthExploresUnknownPeers(t *testing.T) {
	n := mustNode(t, Config{Name: "asker"}, transport.NewMem())
	defer n.Close()
	n.peers.get("measured-a", true).observe(10 * time.Millisecond)
	n.peers.get("measured-b", true).observe(30 * time.Millisecond)
	for i, e := range entries("measured-a", "measured-b", "unknown") {
		e.Key = hashkey.Key(i + 1) // the ring, and eff with it, is ascending by key
		n.members.apply(direct, e)
	}
	order := func() []string {
		var scratch rankScratch
		r, err := n.rank(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		return addrsOf(r.owners(hashkey.Key(2), 3))
	}

	want := []string{"unknown", "measured-a", "measured-b"}
	for i := 0; i < 20; i++ {
		if got := order(); !slices.Equal(got, want) {
			t.Fatalf("fan-out %d before any exchange: owners %v, want %v", i, got, want)
		}
	}
	n.peers.get("unknown", true).observe(20 * time.Millisecond) // one exchange
	want = []string{"measured-a", "unknown", "measured-b"}
	if got := order(); !slices.Equal(got, want) {
		t.Fatalf("after one exchange: owners %v, want %v", got, want)
	}
}

func TestRTTTableObserveEstimate(t *testing.T) {
	var tbl peerTable
	tbl.init()
	if _, ok := tbl.get("nobody", false).estimate(); ok {
		t.Fatal("estimate for unseen peer should be absent")
	}
	samples := func(addr string) uint32 {
		_, n := tbl.get(addr, false).rtt.Load()
		return n
	}
	p := tbl.get("p", true)
	if _, ok := p.estimate(); ok {
		t.Fatal("estimate for an admitted but unmeasured peer should be absent")
	}
	p.observe(10 * time.Millisecond)
	est, ok := tbl.get("p", false).estimate()
	if !ok || samples("p") != 1 || est != 10*time.Millisecond {
		t.Fatalf("first sample = (%v, %d, %v), want exactly 10ms", est, samples("p"), ok)
	}
	p.observe(20 * time.Millisecond)
	est, _ = p.estimate()
	want := time.Duration((1-rttAlpha)*float64(10*time.Millisecond) + rttAlpha*float64(20*time.Millisecond))
	if samples("p") != 2 || est < want-time.Millisecond || est > want+time.Millisecond {
		t.Fatalf("smoothed = (%v, %d), want ~%v", est, samples("p"), want)
	}
	// Non-positive durations (clock granularity) still count as samples.
	tbl.get("q", true).observe(0)
	if _, ok := tbl.get("q", false).estimate(); !ok || samples("q") != 1 {
		t.Fatal("zero-duration sample not counted")
	}
}

// TestRTTTableConcurrent hammers admission, observe and estimate across
// peers and goroutines; run under -race this pins the lock-free read
// discipline, and that racing admissions of one address end in one record.
func TestRTTTableConcurrent(t *testing.T) {
	var tbl peerTable
	tbl.init()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				addr := fmt.Sprintf("peer-%d", i%37)
				tbl.get(addr, true).observe(time.Duration(g+1) * time.Millisecond)
				tbl.get(addr, false).estimate()
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 37; i++ {
		_, samples := tbl.get(fmt.Sprintf("peer-%d", i), true).rtt.Load()
		if want := uint32(8 * (2000 / 37)); samples < want {
			t.Fatalf("peer-%d has %d samples after concurrent observes, want >= %d: an admission lost its record", i, samples, want)
		}
	}
}

// TestRTTFedFromOrdinaryExchanges: a live node's estimator table fills
// from its normal request path (here: pings through the pool), with no
// probe traffic, and the estimate tracks the injected link latency.
func TestRTTFedFromOrdinaryExchanges(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Seed: 7,
		Latency: func(from, to string) time.Duration {
			if from == "a" && to == "b" {
				return 5 * time.Millisecond
			}
			return 0
		},
	})
	a := mustNode(t, Config{Name: "a"}, faulty.Endpoint("a"))
	if err := a.Start(""); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := mustNode(t, Config{Name: "b"}, faulty.Endpoint("b"))
	if err := b.Start(""); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if err := a.PingContext(context.Background(), b.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	peer := a.peers.get(b.Addr(), false)
	est, ok := peer.estimate()
	if _, samples := peer.rtt.Load(); !ok || samples != 4 {
		t.Fatalf("estimate = (%v, %d, %v), want 4 samples", est, samples, ok)
	}
	if est < 4*time.Millisecond || est > 50*time.Millisecond {
		t.Fatalf("estimate %v does not track the 5ms injected link latency", est)
	}
}
