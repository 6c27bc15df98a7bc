package main

// The metric vocabulary and how each figure is read off a finished run.
// BENCHMARK.json repeats the names, units, directions and bounds; the
// smoke test holds the two together.

import (
	"fmt"
	"math"
	"time"
)

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the figures a user of the location service sees, those
// that every workload has and that repeat from run to run. Every bound is
// 0.25, the most the benchmark contract allows: the 2-core sandbox itself
// moves these figures by several per cent from one run to the next, and a
// bound is kept at three times the widest run-to-run spread (quartile
// distance over median, ten seeds) a figure showed on any workload. A
// figure whose spread is not under a third of 0.25 on every workload —
// the p99, the move and update-lag figures, allocs_per_op — is a per-layer
// metric instead; README.md has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"resolve_ops_per_s", "1/s", "higher", 0.25},
	{"resolve_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer are the figures of single layers, from the traced run and the
// stand-alone rungs. They carry no bound.
var perLayer = []metricDef{
	{name: "fail_ratio", unit: "1", better: "lower"},
	{name: "resolve_p99_us", unit: "us", better: "lower"},
	{name: "move_p50_ms", unit: "ms", better: "lower"},
	{name: "move_p95_ms", unit: "ms", better: "lower"},
	{name: "update_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "update_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "allocs_per_op", unit: "1", better: "lower"},

	{name: "wire.encode_ns.discover", unit: "ns", better: "lower"},
	{name: "wire.decode_ns.discover", unit: "ns", better: "lower"},
	{name: "wire.encode_us.publish_batch", unit: "us", better: "lower"},
	{name: "wire.decode_us.publish_batch", unit: "us", better: "lower"},
	{name: "wire.allocs_per_frame.discover", unit: "1", better: "lower"},
	{name: "wire.allocs_per_frame.publish_batch", unit: "1", better: "lower"},

	{name: "transport.mem_rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp_frames_per_s.d16", unit: "1/s", better: "higher"},
	{name: "transport.tcp_dial_us", unit: "us", better: "lower"},

	{name: "live.serve.discover_rtt_us", unit: "us", better: "lower"},
	{name: "live.serve.frames_per_s.d16", unit: "1/s", better: "higher"},
	{name: "live.store.records", unit: "count", better: "lower"},

	{name: "live.rpc.ping_rtt_us", unit: "us", better: "lower"},
	{name: "live.discover_us", unit: "us", better: "lower"},
	{name: "live.rpc.attempts_per_op", unit: "1", better: "lower"},
	{name: "live.rpc.retries_per_op", unit: "1", better: "lower"},
	{name: "live.rpc.timeouts", unit: "count", better: "lower"},
	{name: "live.rpc.failures", unit: "count", better: "lower"},
	{name: "live.breaker.trips", unit: "count", better: "lower"},
	{name: "live.pool.dials", unit: "count", better: "lower"},
	{name: "live.pool.fallbacks", unit: "count", better: "lower"},
	{name: "live.pool.sessions", unit: "count", better: "lower"},
	{name: "live.pool.inflight_mean", unit: "1", better: "lower"},

	{name: "live.resolve_cold_us", unit: "us", better: "lower"},
	{name: "live.resolve_hot_ns", unit: "ns", better: "lower"},
	{name: "live.resolve.hot_scaling", unit: "1", better: "higher"},
	{name: "live.resolve.discoveries_per_op", unit: "1", better: "lower"},
	{name: "live.resolve.stale_answers", unit: "count", better: "lower"},

	{name: "loccache.lookup_hit_ns", unit: "ns", better: "lower"},
	{name: "loccache.lookup_hit_ns.par", unit: "ns", better: "lower"},
	{name: "loccache.lookup_scaling", unit: "1", better: "higher"},
	{name: "loccache.put_evict_ns", unit: "ns", better: "lower"},
	{name: "loccache.flight_ns", unit: "ns", better: "lower"},
	{name: "loccache.hit_ratio", unit: "1", better: "higher"},
	{name: "loccache.evicted_per_op", unit: "1", better: "lower"},
	{name: "loccache.coalesced_per_op", unit: "1", better: "higher"},

	{name: "metrics.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "metrics.counter_inc_ns.par", unit: "ns", better: "lower"},

	{name: "live.publish_ms.k10000", unit: "ms", better: "lower"},
	{name: "live.update_registry_ms.r32", unit: "ms", better: "lower"},
	{name: "live.rebind_residual_ms", unit: "ms", better: "lower"},
	{name: "live.publish.rpcs_per_move", unit: "1", better: "lower"},
	{name: "live.publish.records_per_move", unit: "1", better: "lower"},
	{name: "live.publish.stale_rejected", unit: "count", better: "lower"},
	{name: "live.advertise.received_per_move", unit: "1", better: "lower"},
	{name: "live.advertise.coalesced_per_move", unit: "1", better: "higher"},
	{name: "live.advertise.dropped", unit: "count", better: "lower"},
	{name: "ldt.build_us.m32", unit: "us", better: "lower"},
	{name: "ldt.build_us.m1024", unit: "us", better: "lower"},
	{name: "ldt.depth.m32", unit: "count", better: "lower"},

	{name: "live.membership.select_order_ns.n4", unit: "ns", better: "lower"},

	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.empty_op_ns", unit: "ns", better: "lower"},
	{name: "loadgen.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "ladder.residual_pct", unit: "%", better: "lower"},
	{name: "ladder.cache_share_pct", unit: "%", better: "lower"},
}

// outcome is one finished run: its figures, and the oracle's verdict in
// the counts the benchmark contract asks for.
type outcome struct {
	workload  string
	traced    bool
	vals      values
	attempted uint64
	failed    uint64
	firstErr  error // the first failed op, for the report
	ladder    []*rungStat
	dropped   int // spans that did not fit the recorders' memory
}

// tally adds up what the run attempted and what failed: resolves that
// returned an error or an address the oracle rejects, moves that
// returned an error, and updates that did not reach a registrant in time.
func (r *run) tally(out *outcome) (resolves, stale uint64) {
	for _, d := range r.drivers {
		for _, n := range d.ops {
			resolves += n
		}
		w, s := d.judge(int64(r.grace))
		out.failed += d.errs + w
		stale += s
		if d.firstErr != nil && out.firstErr == nil {
			out.firstErr = d.firstErr
		}
		if w > 0 && out.firstErr == nil {
			out.firstErr = fmt.Errorf("oracle: %d answers were addresses the owner did not hold during the op", w)
		}
	}
	out.attempted = resolves
	for _, mv := range r.movers {
		out.attempted += uint64(len(mv.moves) * (1 + len(mv.regs)))
		out.failed += uint64(mv.undelivered)
		if mv.undelivered > 0 && out.firstErr == nil {
			out.firstErr = fmt.Errorf("oracle: %d updates of %s did not reach a registrant within %v", mv.undelivered, mv.o.m.name, updateDeadline)
		}
		for _, m := range mv.moves {
			if m.err != nil {
				out.failed++
				if out.firstErr == nil {
					out.firstErr = fmt.Errorf("move of %s: %w", mv.o.m.name, m.err)
				}
			}
		}
	}
	return resolves, stale
}

// resolveLatency merges the drivers' windows.
func (r *run) resolveLatency() *windows {
	var lat windows
	for _, d := range r.drivers {
		lat.merge(&d.lat)
	}
	return &lat
}

// primaryOps is the number of ops the run is about: moves where they are
// the primary op, resolves elsewhere.
func (r *run) primaryOps(resolves uint64) uint64 {
	if r.movesPrimary {
		return uint64(len(r.mover.moves))
	}
	return resolves
}

// endToEndValues reads the end-to-end figures off one measured cluster of
// an untraced run.
func (r *run) endToEndValues(p *phase, setup time.Duration) *outcome {
	out := &outcome{workload: r.spec.name, vals: values{}}
	resolves, _ := r.tally(out)
	lat := r.resolveLatency()
	primary := r.primaryOps(resolves)
	v := out.vals
	v["setup_s"] = value{setup.Seconds(), 1}
	v["resolve_ops_per_s"] = value{float64(resolves) / p.dur.Seconds(), resolves}
	v["resolve_p50_us"] = value{lat.quantile(0.50) / 1e3, lat.count()}
	cpu := p.after.cpu - p.before.cpu
	v["cpu_us_per_op"] = value{float64(cpu.Microseconds()) / float64(primary), primary}
	return out
}

// combine folds the outcomes of an untraced run's clusters into one: each
// figure is the median over the clusters, its sample count their sum, and
// the failures add up.
func combine(outs []*outcome) *outcome {
	all := &outcome{workload: outs[0].workload, vals: values{}}
	for _, d := range endToEnd {
		var vs []float64
		var n uint64
		for _, out := range outs {
			vs = append(vs, out.vals[d.name].v)
			n += out.vals[d.name].n
		}
		all.vals[d.name] = value{median(vs), n}
	}
	for _, out := range outs {
		all.attempted += out.attempted
		all.failed += out.failed
		if all.firstErr == nil {
			all.firstErr = out.firstErr
		}
	}
	return all
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayerValues reads the per-layer figures off a finished traced run;
// quiet are the stand-alone rungs' figures, measured before it.
func (r *run) perLayerValues(p *phase, quiet values) *outcome {
	out := &outcome{workload: r.spec.name, traced: true, vals: values{}}
	resolves, stale := r.tally(out)
	v := out.vals
	for name, val := range quiet {
		v[name] = val
	}
	v["fail_ratio"] = value{ratio(out.failed, out.attempted), out.attempted}

	all := r.c.members
	var moverNodes, regNodes []*member
	var moves uint64
	for _, mv := range r.movers {
		moverNodes = append(moverNodes, mv.o.m)
		moves += uint64(len(mv.moves))
		for _, g := range mv.regs {
			regNodes = append(regNodes, g.m)
		}
	}
	primary := r.primaryOps(resolves)
	lat := r.resolveLatency()
	v["resolve_p99_us"] = value{lat.quantile(0.99) / 1e3, lat.count()}
	v["allocs_per_op"] = value{float64(p.after.mallocs-p.before.mallocs) / float64(primary), primary}
	mv := r.mover
	if mv == nil {
		mv = &mover{} // nothing moves: zeros, with no samples behind them
	}
	v["move_p50_ms"] = value{mv.lat.quantile(0.50) / 1e6, mv.lat.count()}
	v["move_p95_ms"] = value{mv.lat.quantile(0.95) / 1e6, mv.lat.count()}
	v["update_lag_p50_ms"] = value{mv.lag.quantile(0.50) / 1e6, mv.lag.count()}
	v["update_lag_p99_ms"] = value{mv.lag.quantile(0.99) / 1e6, mv.lag.count()}
	v["loadgen.late_p99_us"] = value{mv.late.quantile(0.99) / 1e3, mv.late.count()}
	v["live.rpc.attempts_per_op"] = value{ratio(p.delta(r.opNodes, "rpc.attempts"), primary), primary}
	v["live.rpc.retries_per_op"] = value{ratio(p.delta(r.opNodes, "rpc.retries"), primary), primary}
	v["live.rpc.timeouts"] = value{float64(p.delta(all, "rpc.timeouts")), 1}
	v["live.rpc.failures"] = value{float64(p.delta(all, "rpc.failures")), 1}
	v["live.breaker.trips"] = value{float64(p.delta(all, "breaker.trips")), 1}
	v["live.pool.dials"] = value{float64(p.delta(all, "pool.dials")), 1}
	v["live.pool.fallbacks"] = value{float64(p.delta(all, "pool.fallbacks")), 1}
	var sessions int
	for _, m := range r.opNodes {
		sessions += m.node.Stats().PoolSessions
	}
	v["live.pool.sessions"] = value{float64(sessions), uint64(len(r.opNodes))}
	v["live.pool.inflight_mean"] = value{p.inflight.mean(), p.inflight.count()}

	v["live.resolve.discoveries_per_op"] = value{ratio(p.delta(r.resolvers, "resolve.discoveries"), resolves), resolves}
	v["live.resolve.stale_answers"] = value{float64(stale), resolves}
	lookups := p.delta(r.resolvers, "loccache.lookups")
	v["loccache.hit_ratio"] = value{ratio(p.delta(r.resolvers, "loccache.hit"), lookups), lookups}
	v["loccache.evicted_per_op"] = value{ratio(p.delta(r.resolvers, "loccache.evicted"), resolves), resolves}
	v["loccache.coalesced_per_op"] = value{ratio(p.delta(r.resolvers, "loccache.coalesced"), resolves), resolves}

	v["live.publish.rpcs_per_move"] = value{ratio(p.delta(moverNodes, "publish.rpcs"), moves), moves}
	v["live.publish.records_per_move"] = value{ratio(p.delta(r.c.ring, "publish.records"), moves), moves}
	v["live.publish.stale_rejected"] = value{float64(p.delta(all, "publish.stale_rejected")), 1}
	v["live.advertise.received_per_move"] = value{ratio(p.delta(regNodes, "updates.received"), moves), moves}
	v["live.advertise.coalesced_per_move"] = value{ratio(p.delta(all, "updates.coalesced"), moves), moves}
	v["live.advertise.dropped"] = value{float64(p.delta(all, "updates.dropped")), 1}

	v["proc.peak_rss_mb"] = value{float64(p.after.maxRSS) / 1024, 1}
	v["proc.gc_pause_ms"] = value{float64(p.after.gcPause-p.before.gcPause) / 1e6, 1}
	v["proc.goroutines_peak"] = value{float64(p.goroutines), p.inflight.count()}

	// Window 0 ran unladdered: it is the run's own untraced reference.
	var ops [nWindows]uint64
	for _, d := range r.drivers {
		for w, n := range d.ops {
			ops[w] += n
		}
	}
	plain := float64(ops[0])
	laddered := float64(ops[1]+ops[2]) / float64(nWindows-1)
	overhead := 0.0
	if plain > 0 && laddered < plain {
		overhead = 100 * (plain - laddered) / plain
	}
	v["loadgen.trace_overhead_pct"] = value{overhead, ops[0] + ops[1] + ops[2]}

	out.ladder = ladderStats(r.trace.recorders)
	for _, rec := range r.trace.recorders {
		out.dropped += rec.dropped
	}
	r.ladderValues(out)
	return out
}

// ladderValues derives the figures that say whether the ladder accounts
// for the end-to-end number: how far the laddered ops' median is from the
// unladdered window's, and what share of a resolve the cache and its
// counters take.
func (r *run) ladderValues(out *outcome) {
	find := func(name, parent string) *rungStat {
		for _, s := range out.ladder {
			if s.name == name && s.parent == parent {
				return s
			}
		}
		return &rungStat{}
	}
	resolve := "live.resolve"
	if r.ladder == ladderDiscover {
		resolve = "live.discover"
	}
	op, cache := find(resolve, ""), find("loccache", resolve)
	share := 0.0
	if d := op.dur.quantile(0.5); d > 0 {
		share = 100 * cache.dur.quantile(0.5) / d
	}
	out.vals["ladder.cache_share_pct"] = value{share, cache.dur.count()}

	plain := r.resolveLatency()[0].quantile(0.5)
	if r.movesPrimary {
		plain, op = r.mover.lat[0].quantile(0.5), find("live.rebind", "")
	}
	residual := 0.0
	if plain > 0 && op.dur.count() > 0 {
		residual = 100 * math.Abs(plain-op.dur.quantile(0.5)) / plain
	}
	out.vals["ladder.residual_pct"] = value{residual, op.dur.count()}
}
