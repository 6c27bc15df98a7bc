package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// BENCHMARK.json and the tables in metrics.go and workloads.go are the
// same vocabulary written twice.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload for one second untraced and one second
// traced, and holds the result to the contract: every metric BENCHMARK.json
// names is there, finite and not negative, nothing failed, and the
// workloads bypass the layers they are meant to bypass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight clusters over loopback TCP")
	}
	bm := readBenchmarkJSON(t)
	ctx := context.Background()
	const seed, dur = 7, time.Second
	quiet, err := quietRungs(ctx, seed, rungTime(1))
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t0 := time.Now()
			r, err := setUp(ctx, wl, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			setup := time.Since(t0)
			e2e := r.endToEndValues(r.measure(ctx, dur), setup)
			r.close()
			for _, m := range bm.EndToEnd {
				v, ok := e2e.vals[m.Name]
				if !ok || !finite(v.v) || v.v <= 0 {
					t.Errorf("end-to-end %s = %v (emitted: %v), want a finite positive number", m.Name, v.v, ok)
				}
			}
			if err := verdictOf(e2e); err != nil {
				t.Error(err)
			}

			out, err := runTraced(ctx, wl, options{seed: seed, seconds: 1, outDir: outDir}, quiet)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range bm.PerLayer {
				v, ok := out.vals[m.Name]
				if !ok || !finite(v.v) || v.v < 0 {
					t.Errorf("per-layer %s = %v (emitted: %v), want a finite non-negative number", m.Name, v.v, ok)
				}
			}
			if err := verdictOf(out); err != nil {
				t.Error(err)
			}
			if out.vals["fail_ratio"].v != 0 {
				t.Errorf("fail_ratio = %v, want 0", out.vals["fail_ratio"].v)
			}
			if fi, err := os.Stat(filepath.Join(outDir, "trace."+wl.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("trace file missing or empty: %v", err)
			}
			switch wl.name {
			case "hot_key_storm":
				if v := out.vals["live.rpc.attempts_per_op"].v; v > 0.001 {
					t.Errorf("hot_key_storm made %v RPC attempts per resolve; the network should be bypassed", v)
				}
				if v := out.vals["loccache.hit_ratio"].v; v < 0.999 {
					t.Errorf("hot_key_storm hit ratio %v, want about 1", v)
				}
			case "cold_fanin", "chunk_stream":
				if v := out.vals["loccache.hit_ratio"].v; v != 0 {
					t.Errorf("%s hit ratio %v; the cache should be bypassed", wl.name, v)
				}
			}
		})
	}
}
