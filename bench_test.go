package bristle_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md §6 calls out and micro-benchmarks for the
// hot paths. Benchmark bodies run reduced-scale experiment configs so a
// full `go test -bench=.` stays laptop-friendly; the bristle-sim command
// runs the full-scale versions.

import (
	"bytes"
	"math/rand"
	"testing"

	"bristle/internal/chord"
	"bristle/internal/core"
	"bristle/internal/experiments"
	"bristle/internal/hashkey"
	"bristle/internal/ldt"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
	"bristle/internal/wire"
)

// --- per-figure/table benches -------------------------------------------

func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Table1Config{
		Stationary: 120, Mobile: 60, Sessions: 100, Rounds: 3,
		FailFraction: 0.1, Routers: 400, Seed: 42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(42 + i)
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	cfg := experiments.Fig3Config{
		AnalyticN: 1 << 20, EmpiricalN: 256,
		MobileFracs: []float64{0.2, 0.5, 0.8}, Routers: 300, Seed: 3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(3 + i)
		if _, err := experiments.RunFig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := experiments.Fig7Config{
		Stationary:  120,
		MobileFracs: []float64{0, 0.4, 0.8},
		Routes:      200,
		Routers:     400,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(1 + i)
		rows, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the headline metric of the final sweep point.
		b.ReportMetric(rows[len(rows)-1].RDPHops, "rdp@80%")
	}
}

func BenchmarkFig8(b *testing.B) {
	cfg := experiments.Fig8Config{
		Nodes: 25000, RegistrySize: 15, MaxCapacity: 15,
		Trees: 200, SampleTrees: 15,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(8 + i)
		if _, err := experiments.RunFig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := experiments.Fig9Config{
		Routers: 500, Fracs: []float64{0.3, 1.0},
		RegistrySize: 10, CandidateFrac: 0.15, MaxCapacity: 15,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(9 + i)
		rows, err := experiments.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].LocalityImprovement, "locality-gain")
	}
}

func BenchmarkDataChurn(b *testing.B) {
	cfg := experiments.DataChurnConfig{
		Stationary: 80, Mobile: 50, Items: 100,
		Replication: 3, Rounds: 2, Routers: 400,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(13 + i)
		rows, err := experiments.RunDataChurn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TransfersPerMove, "typeA-transfers/move")
	}
}

func BenchmarkEq1(b *testing.B) {
	cfg := experiments.Eq1Config{
		Stationary:  120,
		MobileFracs: []float64{0.3, 0.7},
		Routes:      200,
		Routers:     400,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(6 + i)
		if _, err := experiments.RunEq1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scaling bench: the O(log N) claims ---------------------------------

func BenchmarkScaling(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		size := size
		b.Run(itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(size)))
			ring := overlay.NewRing(overlay.DefaultConfig(), nil)
			for i := 0; i < size; i++ {
				for {
					if _, err := ring.AddNode(hashkey.Random(rng), simnet.NoHost); err == nil {
						break
					}
				}
			}
			nodes := ring.Nodes()
			b.ResetTimer()
			totalHops := 0
			for i := 0; i < b.N; i++ {
				src := nodes[rng.Intn(len(nodes))]
				res, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil)
				if err != nil {
					b.Fatal(err)
				}
				totalHops += res.NumHops()
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops/route")
		})
	}
}

// --- ablations (DESIGN.md §6) --------------------------------------------

// BenchmarkAblationMonotone compares monotone arc routing (Bristle's
// discipline, required by the clustered naming analysis) against
// unrestricted greedy routing.
func BenchmarkAblationMonotone(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	ring := overlay.NewRing(overlay.DefaultConfig(), nil)
	for i := 0; i < 1024; i++ {
		for {
			if _, err := ring.AddNode(hashkey.Random(rng), simnet.NoHost); err == nil {
				break
			}
		}
	}
	nodes := ring.Nodes()

	b.Run("monotone", func(b *testing.B) {
		hops := 0
		for i := 0; i < b.N; i++ {
			src := nodes[rng.Intn(len(nodes))]
			res, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil)
			if err != nil {
				b.Fatal(err)
			}
			hops += res.NumHops()
		}
		b.ReportMetric(float64(hops)/float64(b.N), "hops/route")
	})
	b.Run("greedy", func(b *testing.B) {
		hops := 0
		for i := 0; i < b.N; i++ {
			src := nodes[rng.Intn(len(nodes))]
			res, err := ring.RouteGreedy(src.Ref.ID, hashkey.Random(rng), nil)
			if err != nil {
				b.Fatal(err)
			}
			hops += res.NumHops()
		}
		b.ReportMetric(float64(hops)/float64(b.N), "hops/route")
	})
}

// BenchmarkAblationProximity measures mean underlay cost per overlay hop
// with proximity neighbor selection on and off.
func BenchmarkAblationProximity(b *testing.B) {
	for _, prox := range []int{0, 4} {
		prox := prox
		name := "off"
		if prox > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(78))
			g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(500), rng)
			if err != nil {
				b.Fatal(err)
			}
			net := simnet.NewNetwork(g)
			ring := overlay.NewRing(overlay.Config{LeafSize: 4, ProximityChoices: prox}, net)
			for i := 0; i < 400; i++ {
				host := net.AttachHostRandom(rng)
				for {
					if _, err := ring.AddNode(hashkey.Random(rng), host); err == nil {
						break
					}
				}
			}
			nodes := ring.Nodes()
			b.ResetTimer()
			cost, hops := 0.0, 0
			for i := 0; i < b.N; i++ {
				src := nodes[rng.Intn(len(nodes))]
				res, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range res.Hops {
					cost += net.Cost(ring.Node(h.From.ID).Host, ring.Node(h.To.ID).Host)
					hops++
				}
			}
			if hops > 0 {
				b.ReportMetric(cost/float64(hops), "cost/hop")
			}
		})
	}
}

// BenchmarkAblationLDT compares the capacity-aware Figure 4 tree against
// a naive balanced k-ary tree that ignores node capacity, by the depth
// reached on heterogeneous members.
func BenchmarkAblationLDT(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	mkMembers := func() (ldt.Member, []ldt.Member) {
		root := ldt.Member{ID: 0, Capacity: 1 + float64(rng.Intn(15))}
		reg := make([]ldt.Member, 15)
		for i := range reg {
			reg[i] = ldt.Member{ID: int32(i + 1), Capacity: 1 + float64(rng.Intn(15))}
		}
		return root, reg
	}
	b.Run("capacity-aware", func(b *testing.B) {
		depths := 0
		for i := 0; i < b.N; i++ {
			root, reg := mkMembers()
			tree, err := ldt.Build(root, reg, ldt.Params{UnitCost: 1})
			if err != nil {
				b.Fatal(err)
			}
			depths += tree.Depth()
		}
		b.ReportMetric(float64(depths)/float64(b.N), "depth")
	})
	b.Run("naive-binary", func(b *testing.B) {
		// Fixed fanout 2 regardless of capacity: the ideal balanced 2-ary
		// depth over the same member count.
		depths := 0
		for i := 0; i < b.N; i++ {
			_, reg := mkMembers()
			depths += ldt.IdealDepth(len(reg), 2)
		}
		b.ReportMetric(float64(depths)/float64(b.N), "depth")
	})
}

// BenchmarkAblationBinding compares early+late binding (registrants get
// proactive LDT pushes; discovery only as fallback) against late-only
// binding (every send resolves reactively), by discovery operations per
// delivered message.
func BenchmarkAblationBinding(b *testing.B) {
	build := func(seed int64) (*core.Network, []*core.Peer, []*core.Peer) {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(400), rng)
		if err != nil {
			b.Fatal(err)
		}
		net := simnet.NewNetwork(g)
		bn := core.NewNetwork(core.Config{
			Naming:             core.Clustered,
			StationaryFraction: 0.6,
			Overlay:            overlay.DefaultConfig(),
			ReplicationFactor:  2,
			UnitCost:           1,
			CacheResolved:      true,
		}, net, nil, rng)
		var stats, mobs []*core.Peer
		for i := 0; i < 90; i++ {
			p, err := bn.AddPeer(core.Stationary, 1+float64(rng.Intn(15)))
			if err != nil {
				b.Fatal(err)
			}
			stats = append(stats, p)
		}
		for i := 0; i < 60; i++ {
			p, err := bn.AddPeer(core.Mobile, 1+float64(rng.Intn(15)))
			if err != nil {
				b.Fatal(err)
			}
			mobs = append(mobs, p)
		}
		bn.RefreshEntries()
		return bn, stats, mobs
	}

	run := func(b *testing.B, early bool) {
		bn, stats, mobs := build(80)
		rng := rand.New(rand.NewSource(81))
		if early {
			for _, m := range mobs {
				for k := 0; k < 4; k++ {
					bn.Register(stats[rng.Intn(len(stats))], m)
				}
			}
		}
		for _, m := range mobs {
			if _, err := bn.PublishLocation(m); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		sends, discoveries := 0, uint64(0)
		for i := 0; i < b.N; i++ {
			m := mobs[rng.Intn(len(mobs))]
			if early {
				if _, err := bn.MoveAndUpdate(m); err != nil {
					b.Fatal(err)
				}
			} else {
				bn.MoveSilently(m)
				if _, err := bn.PublishLocation(m); err != nil {
					b.Fatal(err)
				}
			}
			before := bn.Stats.Discoveries
			var senders []*core.Peer
			if early && len(m.Registry()) > 0 {
				senders = m.Registry()
			} else {
				senders = stats[:4]
			}
			for _, s := range senders {
				if _, err := bn.SendDirect(s, m); err != nil {
					b.Fatal(err)
				}
				sends++
			}
			discoveries += bn.Stats.Discoveries - before
		}
		if sends > 0 {
			b.ReportMetric(float64(discoveries)/float64(sends), "discoveries/send")
		}
	}

	b.Run("early+late", func(b *testing.B) { run(b, true) })
	b.Run("late-only", func(b *testing.B) { run(b, false) })
}

// --- micro-benchmarks ------------------------------------------------------

func BenchmarkChordRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	ch := chord.New(chord.DefaultConfig(), nil)
	for i := 0; i < 2048; i++ {
		for {
			if _, err := ch.AddNode(hashkey.Random(rng), simnet.NoHost); err == nil {
				break
			}
		}
	}
	refs := ch.Refs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := refs[i%len(refs)]
		if _, err := ch.Route(src.ID, hashkey.Random(rng), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlayRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(90))
	ring := overlay.NewRing(overlay.DefaultConfig(), nil)
	for i := 0; i < 2048; i++ {
		for {
			if _, err := ring.AddNode(hashkey.Random(rng), simnet.NoHost); err == nil {
				break
			}
		}
	}
	nodes := ring.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		if _, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(2000), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.Dijkstra(g, topology.RouterID(i%g.NumRouters()))
	}
}

func BenchmarkLDTBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	reg := make([]ldt.Member, 15)
	for i := range reg {
		reg[i] = ldt.Member{ID: int32(i + 1), Capacity: 1 + float64(rng.Intn(15))}
	}
	root := ldt.Member{ID: 0, Capacity: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldt.Build(root, reg, ldt.Params{UnitCost: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireCodec(b *testing.B) {
	m := &wire.Message{
		Type: wire.TUpdate,
		Key:  hashkey.FromName("subject"),
		Self: wire.Entry{Key: 7, Addr: "192.0.2.17:9000", Capacity: 3, TTLMilli: 30000},
	}
	for i := 0; i < 15; i++ {
		m.Entries = append(m.Entries, wire.Entry{
			Key: hashkey.Key(i), Addr: "192.0.2.1:1234", Capacity: float64(i),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---------------------------------------------------------------

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
