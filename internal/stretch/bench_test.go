package stretch

// The recorded stretch evaluation (BENCH_stretch.json, which make
// bench-stretch must reproduce figure for figure):
// one 10k-router transit-stub run per variant, same seed and workload, so
// the three metric sets are directly comparable. benchgate holds the
// proximity median under its ceiling and the random baseline above its
// floor — the gap is the feature.

import "testing"

func benchConfig(placement, ordering bool) Config {
	return Config{
		Seed:            42,
		Routers:         10000,
		Stationary:      1024,
		Records:         2048,
		Clients:         128,
		Replication:     4,
		Correspondents:  8,
		Warmup:          12,
		Queries:         4096,
		RegionPlacement: placement,
		LatencyOrdering: ordering,
		RTTNoise:        0.1,
	}
}

func runStretchBench(b *testing.B, placement, ordering bool) {
	for i := 0; i < b.N; i++ {
		res, err := Run(benchConfig(placement, ordering))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MedianStretch, "median-stretch/op")
		b.ReportMetric(res.P90Stretch, "p90-stretch/op")
		b.ReportMetric(res.MeanChosenCost, "mean-cost/op")
	}
}

// BenchmarkStretchProximity10k: region-striped placement + latency
// ordering — the full proximity stack.
func BenchmarkStretchProximity10k(b *testing.B) { runStretchBench(b, true, true) }

// BenchmarkStretchOrderingOnly10k: latency ordering over plain-hash
// replica sets — what a deployment gets without WithRegion.
func BenchmarkStretchOrderingOnly10k(b *testing.B) { runStretchBench(b, false, true) }

// BenchmarkStretchRandom10k: the pre-proximity baseline — key-distance
// placement, key-distance contact order.
func BenchmarkStretchRandom10k(b *testing.B) { runStretchBench(b, false, false) }
