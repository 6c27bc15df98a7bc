package main

// The stand-alone rungs: each layer's exported functions called in a
// quiet process, before any workload runs, on a cluster of batch_mover's
// shape (4 stationaries, a 10000-key mover with 32 registrants, one
// client). Same machine, same messages as the workloads' ops; counters on
// wherever a node would have them on.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/ldt"
	"bristle/internal/live"
	"bristle/internal/loccache"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// value is one reported figure with the number of samples behind it.
type value struct {
	v float64
	n uint64
}

type values map[string]value

// throughput runs fn in g goroutines for about dur and returns calls per
// second over all of them, and the number of calls.
func throughput(dur time.Duration, g int, fn func(id int)) (float64, uint64) {
	const batch = 256
	counts := make([]uint64, g)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for id := 0; id < g; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for time.Now().Before(end) {
				for i := 0; i < batch; i++ {
					fn(id)
				}
				counts[id] += batch
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var n uint64
	for _, c := range counts {
		n += c
	}
	return float64(n) / elapsed.Seconds(), n
}

// scaling measures a function alone and with a second goroutine beside
// it: ns per call as one caller sees it in each case, and the pair's
// throughput as a share of twice the single caller's.
func scaling(dur time.Duration, fn func(id int)) (single, par, ratio value) {
	t1, n1 := throughput(dur, 1, fn)
	t2, n2 := throughput(dur, 2, fn)
	return value{1e9 / t1, n1}, value{2e9 / t2, n2}, value{t2 / (2 * t1), n1 + n2}
}

// latency calls fn for about dur (at least minCalls times), timing each
// call, and returns the median in nanoseconds.
func latency(dur time.Duration, minCalls int, fn func() error) (value, error) {
	var h hist
	end := time.Now().Add(dur)
	for i := 0; i < minCalls || time.Now().Before(end); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return value{}, err
		}
		h.record(int64(time.Since(t0)))
	}
	return value{h.quantile(0.5), h.count()}, nil
}

// pipelined keeps depth frames outstanding on c for about dur and returns
// replies per second.
func pipelined(c transport.Conn, dur time.Duration, depth int, next func() *wire.Message) (value, error) {
	for i := 0; i < depth; i++ {
		if err := c.Send(next()); err != nil {
			return value{}, err
		}
	}
	var n uint64
	start := time.Now()
	end := start.Add(dur)
	for time.Now().Before(end) {
		m, err := c.Recv()
		if err != nil {
			return value{}, err
		}
		wire.PutMessage(m)
		n++
		if err := c.Send(next()); err != nil {
			return value{}, err
		}
	}
	elapsed := time.Since(start)
	for i := 0; i < depth; i++ { // drain what is still in flight
		m, err := c.Recv()
		if err != nil {
			return value{}, err
		}
		wire.PutMessage(m)
	}
	return value{float64(n) / elapsed.Seconds(), n}, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quietRungs boots the rung cluster, runs every stand-alone rung for about
// dur each and returns the figures by metric name.
func quietRungs(ctx context.Context, seed int64, dur time.Duration) (values, error) {
	r, err := boot(ctx, findWorkload("batch_mover"), seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	vals := values{}
	for _, rung := range []func(context.Context, *run, time.Duration, values) error{
		wireRungs, transportRungs, serveRungs, clientRungs, cacheRungs, moveRungs,
	} {
		if err := rung(ctx, r, dur, vals); err != nil {
			return nil, fmt.Errorf("stand-alone rungs: %w", err)
		}
	}
	return vals, nil
}

func ringOf(n *live.Node) []wire.Entry {
	var ring []wire.Entry
	for _, e := range n.KnownPeers() {
		if !e.Mobile {
			ring = append(ring, e)
		}
	}
	return ring
}

func wireRungs(_ context.Context, r *run, dur time.Duration, vals values) error {
	var buf codecBuf
	var failed error
	for _, c := range []struct {
		suffix string
		msg    *wire.Message
		scale  float64 // ns → the reported unit
		unit   string
	}{
		{"discover", &wire.Message{Type: wire.TDiscover, Key: r.targets[0].key, Seq: 1}, 1, "ns"},
		{"publish_batch", largestChunk(ringOf(r.mover.o.m.node), r.mover.o.m.node), 1e-3, "us"},
	} {
		frame, err := wire.AppendFrame(nil, c.msg)
		if err != nil {
			return err
		}
		enc, n := throughput(dur, 1, func(int) {
			if buf.frame, err = wire.AppendFrame(buf.frame[:0], c.msg); err != nil {
				failed = err
			}
		})
		vals["wire.encode_"+c.unit+"."+c.suffix] = value{1e9 / enc * c.scale, n}
		dec, n := throughput(dur, 1, func(int) {
			buf.rd.Reset(frame)
			m, err := wire.Decode(&buf.rd)
			if err != nil {
				failed = err
				return
			}
			wire.PutMessage(m)
		})
		vals["wire.decode_"+c.unit+"."+c.suffix] = value{1e9 / dec * c.scale, n}
		before := mallocs()
		_, n = throughput(dur/2, 1, func(int) {
			if err := buf.codec(c.msg); err != nil {
				failed = err
			}
		})
		vals["wire.allocs_per_frame."+c.suffix] = value{float64(mallocs()-before) / float64(n), n}
	}
	return failed
}

func transportRungs(_ context.Context, r *run, dur time.Duration, vals values) error {
	msg := &wire.Message{Type: wire.TDiscover, Key: r.targets[0].key, Seq: 1}
	rtt := func(tr transport.Transport, addr, name string, more func(*echoServer, transport.Conn) error) error {
		echo, err := startEchoOn(tr, addr)
		if err != nil {
			return err
		}
		defer echo.close()
		c, err := tr.Dial(echo.addr())
		if err != nil {
			return err
		}
		defer c.Close()
		v, err := latency(dur, 100, func() error {
			m, err := exchange(c, msg)
			if err == nil {
				wire.PutMessage(m)
			}
			return err
		})
		if err != nil {
			return err
		}
		vals[name] = value{v.v / 1e3, v.n}
		if more != nil {
			return more(echo, c)
		}
		return nil
	}
	if err := rtt(transport.NewMem(), "", "transport.mem_rtt_us", nil); err != nil {
		return err
	}
	tcp := &transport.TCP{}
	return rtt(tcp, listenAddr, "transport.tcp_rtt_us", func(echo *echoServer, c transport.Conn) error {
		v, err := pipelined(c, dur, 16, func() *wire.Message { return msg })
		if err != nil {
			return err
		}
		vals["transport.tcp_frames_per_s.d16"] = v
		// A fixed, small number of dials: each leaves a socket in TIME_WAIT.
		var h hist
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			d, err := tcp.Dial(echo.addr())
			if err != nil {
				return err
			}
			h.record(int64(time.Since(t0)))
			d.Close()
		}
		vals["transport.tcp_dial_us"] = value{h.quantile(0.5) / 1e3, h.count()}
		return nil
	})
}

// serveRungs speak TDiscover to a stationary over a raw conn: accept,
// decode, per-frame goroutine, store read, reply — without the client's
// pool, breaker or replica choice.
func serveRungs(_ context.Context, r *run, dur time.Duration, vals values) error {
	ring := ringOf(r.resolvers[0].node)
	k := &kit{raw: make(map[string]transport.Conn), cands: make([]wire.Entry, len(ring))}
	defer k.close()
	tcp := &transport.TCP{}
	for _, e := range ring {
		c, err := tcp.Dial(e.Addr)
		if err != nil {
			return err
		}
		k.raw[e.Addr] = c
	}
	i := 0
	next := func() hashkey.Key {
		i = (i + 1) % len(r.targets)
		return r.targets[i].key
	}
	v, err := latency(dur, 100, func() error {
		key := next()
		k.seq++
		resp, err := exchange(k.ownerConn(ring, key), &wire.Message{Type: wire.TDiscover, Key: key, Seq: k.seq})
		if err != nil {
			return err
		}
		if !resp.Found {
			return fmt.Errorf("serve rung: %v not found at its first replica", key)
		}
		wire.PutMessage(resp)
		return nil
	})
	if err != nil {
		return err
	}
	vals["live.serve.discover_rtt_us"] = value{v.v / 1e3, v.n}

	// Sixteen outstanding on one connection, so all go to one stationary:
	// keys it holds or not, the serve path is the same. Send has encoded
	// the message when it returns, so one message is reused.
	msg := &wire.Message{Type: wire.TDiscover}
	v, err = pipelined(k.raw[ring[0].Addr], dur, 16, func() *wire.Message {
		msg.Key = next()
		msg.Seq++
		return msg
	})
	if err != nil {
		return err
	}
	vals["live.serve.frames_per_s.d16"] = v
	var records int
	for _, m := range r.c.ring {
		records += m.node.Stats().StoreRecords
	}
	vals["live.store.records"] = value{float64(records), uint64(len(r.c.ring))}
	return nil
}

// clientRungs call the client node's exported operations one at a time.
func clientRungs(ctx context.Context, r *run, dur time.Duration, vals values) error {
	cl := r.resolvers[0].node
	ring := ringOf(cl)
	v, err := latency(dur, 100, func() error { return cl.PingContext(ctx, ring[0].Addr) })
	if err != nil {
		return err
	}
	vals["live.rpc.ping_rtt_us"] = value{v.v / 1e3, v.n}

	i := 0
	next := func() hashkey.Key {
		i = (i + 1) % len(r.targets)
		return r.targets[i].key
	}
	if v, err = latency(dur, 100, func() error { _, err := cl.DiscoverContext(ctx, next()); return err }); err != nil {
		return err
	}
	vals["live.discover_us"] = value{v.v / 1e3, v.n}
	// The scan is longer than the cache, so every resolve misses.
	if v, err = latency(dur, 100, func() error { _, err := cl.ResolveContext(ctx, next()); return err }); err != nil {
		return err
	}
	vals["live.resolve_cold_us"] = value{v.v / 1e3, v.n}

	hot := r.targets[0].key
	var failed atomic.Bool
	vals["live.resolve_hot_ns"], _, vals["live.resolve.hot_scaling"] = scaling(dur, func(int) {
		if _, err := cl.ResolveContext(ctx, hot); err != nil {
			failed.Store(true)
		}
	})
	if failed.Load() {
		_, err := cl.ResolveContext(ctx, hot)
		return fmt.Errorf("hot resolve rung failed; now: %v", err)
	}

	cands := make([]wire.Entry, len(ring))
	t, n := throughput(dur, 1, func(int) {
		copy(cands, ring)
		live.OrderReplicas(live.SelectReplicas(cands, next(), 2, 0), nil, nil)
	})
	vals["live.membership.select_order_ns.n4"] = value{1e9 / t, n}
	return nil
}

// cacheRungs measure loccache and metrics on registries of their own,
// configured as a node's: counters and gauges on.
func cacheRungs(ctx context.Context, r *run, dur time.Duration, vals values) error {
	counters := metrics.NewCounters()
	cache := loccache.New(loccache.Config{Counters: counters, Gauges: metrics.NewGauges()})
	keys := genKeys(r.rng, 4096)
	for _, k := range keys {
		cache.Put(k, "127.0.0.1:1", time.Hour)
	}
	vals["loccache.lookup_hit_ns"], vals["loccache.lookup_hit_ns.par"], vals["loccache.lookup_scaling"] = scaling(dur, func(int) {
		cache.Lookup(keys[0])
	})
	t, n := throughput(dur, 1, func(int) {
		cache.PutEpoch(hashkey.Random(r.rng), "127.0.0.1:1", leaseTTL, 1)
	})
	vals["loccache.put_evict_ns"] = value{1e9 / t, n}
	var flights loccache.Group
	t, n = throughput(dur, 1, func(int) {
		_, _, _ = flights.Do(ctx, keys[0], func() (string, error) { return "", nil })
	})
	vals["loccache.flight_ns"] = value{1e9 / t, n}
	vals["metrics.counter_inc_ns"], vals["metrics.counter_inc_ns.par"], _ = scaling(dur, func(int) {
		counters.Inc("loccache.hit")
	})

	// What the load generator adds to an op it times: two clock reads and
	// a histogram record.
	var h hist
	t, n = throughput(dur, 1, func(int) {
		t0 := time.Now()
		h.record(int64(time.Since(t0)))
	})
	vals["loadgen.empty_op_ns"] = value{1e9 / t, n}
	return nil
}

// moveRungs time a move and its two halves alone — what is left of the
// move without them is the listener swap, the old connections' teardown
// and the peers' re-dial — and the LDT build.
func moveRungs(ctx context.Context, r *run, dur time.Duration, vals values) error {
	node := r.mover.o.m.node
	pub, err := latency(dur, 10, func() error { return node.PublishContext(ctx) })
	if err != nil {
		return err
	}
	vals["live.publish_ms.k10000"] = value{pub.v / 1e6, pub.n}
	upd, err := latency(dur, 10, func() error { return node.UpdateRegistryContext(ctx) })
	if err != nil {
		return err
	}
	vals["live.update_registry_ms.r32"] = value{upd.v / 1e6, upd.n}
	move, err := latency(dur, 10, func() error { return node.RebindContext(ctx, listenAddr) })
	if err != nil {
		return err
	}
	vals["live.rebind_residual_ms"] = value{math.Max(0, move.v-pub.v-upd.v) / 1e6, move.n}

	for _, m := range []int{32, 1024} {
		regs := make([]ldt.Member, m)
		for i := range regs {
			regs[i] = ldt.Member{ID: int32(i + 1), Capacity: float64(int(1) << (i % 4))}
		}
		root := ldt.Member{ID: 0, Capacity: nodeCapacity}
		var tree *ldt.Tree
		v, err := latency(dur/2, 10, func() error {
			var err error
			tree, err = ldt.Build(root, regs, ldt.Params{UnitCost: 1})
			return err
		})
		if err != nil {
			return err
		}
		vals[fmt.Sprintf("ldt.build_us.m%d", m)] = value{v.v / 1e3, v.n}
		if m == 32 {
			vals["ldt.depth.m32"] = value{float64(tree.Depth()), 1}
		}
	}
	return nil
}
