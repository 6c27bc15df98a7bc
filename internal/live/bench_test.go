package live

// Benchmarks for the live stack's two hot paths.
//
// BenchmarkRPCPooled* time one exchange over a pooled session, the only
// way a node sends a frame: through the retry/breaker wrapping, from one
// goroutine and from GOMAXPROCS, and (Raw) the pool's round trip alone.
// BenchmarkRPCPooledTCP is a lone discover through the pool over loopback
// TCP — a cache miss's exchange — and BenchmarkRPCRawTCP its floor, the
// same exchange over a bare framed conn.
// Run with: go test -bench=BenchmarkRPC -benchmem ./internal/live
//
// BenchmarkDiscover and BenchmarkResolve* contrast address resolution
// with and without the lease-aware location cache: Discover always pays
// a network round trip; ResolveHot answers from a fresh lease,
// ResolveColdMiss pays the network plus the cache fill. `make bench` records these in
// BENCH_resolve.json for cross-PR comparison.
import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/loccache"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// benchPair starts a ping server and returns a client node plus the
// server address. Retries are disabled: a benchmark exchange either works
// or the benchmark should fail loudly.
func benchPair(b *testing.B) (*Node, string) {
	b.Helper()
	mem := transport.NewMem()
	server := mustNode(b, Config{Name: "bench-server", Capacity: 2}, mem)
	if err := server.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })

	client := mustNode(b, Config{Name: "bench-client", Capacity: 1, RetryAttempts: 1}, mem)
	b.Cleanup(func() { client.Close() })
	return client, server.Addr()
}

func BenchmarkRPCPooled(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.PingContext(ctx, addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCPooledParallel(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := client.PingContext(ctx, addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCPooledRaw measures the pool's round trip without the
// breaker/retry wrapping — the mux floor itself.
func BenchmarkRPCPooledRaw(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	peer := client.peers.get(addr, true)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.pool.roundTrip(ctx, peer, &wire.Message{Type: wire.TPing}, time.Now(), farOff()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tcpReplica starts a node over loopback TCP holding one location record,
// and returns it with the record's key.
func tcpReplica(b *testing.B) (*Node, hashkey.Key) {
	b.Helper()
	server := mustNode(b, Config{Name: "bench-replica"}, &transport.TCP{})
	if err := server.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	key := hashkey.FromName("bench-target")
	server.store.apply(wire.Entry{Key: key, Addr: "192.0.2.1:9000", Epoch: 1}, key, monotime())
	return server, key
}

// BenchmarkRPCPooledTCP: one caller's discover through the pool, under an
// attempt's deadline, over loopback TCP.
func BenchmarkRPCPooledTCP(b *testing.B) {
	server, key := tcpReplica(b)
	client := mustNode(b, Config{Name: "bench-pooled", RetryAttempts: 1}, &transport.TCP{})
	b.Cleanup(func() { client.Close() })
	peer := client.peers.get(server.Addr(), true)
	ctx := context.Background()
	req := &wire.Message{Type: wire.TDiscover, Key: key}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := client.pool.roundTrip(ctx, peer, req, start, start.Add(time.Second))
		if err != nil || !resp.Found {
			b.Fatalf("discover: %v, %v", resp, err)
		}
		wire.PutMessage(resp)
	}
}

// BenchmarkRPCRawTCP is BenchmarkRPCPooledTCP's floor: the same discover
// over a bare framed conn, one Send and one Recv.
func BenchmarkRPCRawTCP(b *testing.B) {
	server, key := tcpReplica(b)
	conn, err := (&transport.TCP{}).Dial(server.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	req := &wire.Message{Type: wire.TDiscover, Key: key}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq++
		if err := conn.Send(req); err != nil {
			b.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil || !resp.Found {
			b.Fatalf("discover: %v, %v", resp, err)
		}
		wire.PutMessage(resp)
	}
}

// instrumented turns a node's counters and gauges on, each node with
// registries of its own, the way cmd/bristled runs one: the gated figures
// include what counting costs.
func instrumented(cfg Config) Config {
	cfg.Counters = metrics.NewCounters()
	cfg.Gauges = metrics.NewGauges()
	return cfg
}

// resolveBench starts a two-server ring with a target record published
// under lease (0: none) and returns a warmed client plus the target's key
// and address.
func resolveBench(b *testing.B, lease time.Duration) (*Node, hashkey.Key, string) {
	b.Helper()
	mem := transport.NewMem()
	var servers []*Node
	for _, name := range []string{"bench-a", "bench-b"} {
		nd := mustNode(b, instrumented(Config{Name: name, Capacity: 4, RetryAttempts: 1, LeaseTTL: lease}), mem)
		if err := nd.Start(""); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		servers = append(servers, nd)
	}
	client := mustNode(b, instrumented(Config{Name: "bench-resolver", Capacity: 1, RetryAttempts: 1}), mem)
	if err := client.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	for _, nd := range append(servers[1:], client) {
		if err := nd.JoinViaContext(context.Background(), servers[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	target := servers[0]
	if err := target.PublishContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	return client, target.Key(), target.Addr()
}

// BenchmarkDiscover is the cold baseline: every resolution is a network
// _discovery round trip (forced late binding) — what every lookup cost
// before the location cache existed.
func BenchmarkDiscover(b *testing.B) {
	client, key, _ := resolveBench(b, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.DiscoverContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePipelinedTCP is the serve path's capacity over a real
// socket: one loopback conn keeps 16 discovers outstanding against a
// node, the shape a busy pooled session gives a stationary replica. The
// client batches the same way the pool's writer does (Queue, flushed when
// its Recv runs dry), so each side pays one write per burst; frames/write
// is the server's side of that — replies per socket write — which `make
// bench-gate` holds at 2 or more.
func BenchmarkServePipelinedTCP(b *testing.B) {
	const depth = 16
	counters := metrics.NewCounters()
	tcp := &transport.TCP{}
	server := mustNode(b, Config{Name: "bench-serve", Counters: counters}, tcp)
	if err := server.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	key := hashkey.FromName("bench-target")
	server.store.apply(wire.Entry{Key: key, Addr: "192.0.2.1:9000", Epoch: 1}, key, monotime())
	conn, err := tcp.Dial(server.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })

	req := &wire.Message{Type: wire.TDiscover, Key: key}
	send := func() {
		req.Seq++
		if _, err := conn.Queue(req); err != nil {
			b.Fatal(err)
		}
	}
	recv := func() {
		resp, err := conn.Recv()
		if err != nil || !resp.Found {
			b.Fatalf("reply: %v, %v", resp, err)
		}
		wire.PutMessage(resp)
	}
	for i := 0; i < depth; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv()
		send()
	}
	b.StopTimer()
	for i := 0; i < depth; i++ {
		recv()
	}
	if writes := counters.Get("serve.flushes"); writes > 0 {
		b.ReportMetric(float64(counters.Get("serve.frames"))/float64(writes), "frames/write")
	}
}

// BenchmarkResolveHot is the steady state the cache buys: a fresh lease
// answers every resolve from one bucket-chain walk, a clock read and two
// counter adds — no network, no lock.
func BenchmarkResolveHot(b *testing.B) {
	client, key, _ := resolveBench(b, 0)
	ctx := context.Background()
	if _, err := client.ResolveContext(ctx, key); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ResolveContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveHotParallel: the hot path under contention — many
// goroutines resolving the same key concurrently.
func BenchmarkResolveHotParallel(b *testing.B) {
	client, key, _ := resolveBench(b, 0)
	ctx := context.Background()
	if _, err := client.ResolveContext(ctx, key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.ResolveContext(ctx, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveHotScaling asks whether a second processor buys a
// second hot path's worth of resolves: one goroutine resolves the key b.N
// times, then GOMAXPROCS goroutines do b.N each, and scaling is the first
// wall time over the second — 1.0 when the goroutines do not slow each
// other at all, 1/GOMAXPROCS when they take turns. `make bench-gate`
// holds it at 0.7 or more. One processor is its own baseline: there the
// metric is 1 by definition.
func BenchmarkResolveHotScaling(b *testing.B) {
	client, key, _ := resolveBench(b, 0)
	ctx := context.Background()
	if _, err := client.ResolveContext(ctx, key); err != nil {
		b.Fatal(err)
	}
	run := func(goroutines int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if _, err := client.ResolveContext(ctx, key); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	procs := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	alone := run(1)
	scaling := 1.0
	if procs > 1 {
		scaling = float64(alone) / float64(run(procs))
	}
	b.ReportMetric(scaling, "scaling")
}

// BenchmarkResolveColdMiss: the worst case with the cache on — every
// iteration misses (the cache's clock jumps past the entry's lease each
// time, so the lookup finds it lapsed and drops it) and
// pays the singleflight + network + fill.
func BenchmarkResolveColdMiss(b *testing.B) {
	const lease = time.Minute
	client, key, _ := resolveBench(b, lease)
	var ahead atomic.Int64 // how far the cache's clock runs ahead, ns
	client.loc = loccache.New(loccache.Config{
		Clock:    func() time.Time { return time.Now().Add(time.Duration(ahead.Load())) },
		Counters: client.cfg.Counters,
		Gauges:   client.cfg.Gauges,
	})
	ctx := context.Background()
	served := func() uint64 { return client.cfg.Counters.Get("loccache.hit") }
	before := served()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ahead.Add(int64(2 * lease))
		if _, err := client.ResolveContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := served() - before; hits != 0 {
		b.Fatalf("%d of %d resolves were answered from the cache", hits, b.N)
	}
}

// benchPublishCluster starts three stationary replicas plus one mobile
// publisher that owns ownedKeys resource records beyond its identity key
// and places every record on replication of the three (0: the default).
func benchPublishCluster(b *testing.B, ownedKeys, replication int) (*Node, *metrics.Counters) {
	b.Helper()
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	var servers []*Node
	for _, name := range []string{"bench-r1", "bench-r2", "bench-r3"} {
		nd := mustNode(b, Config{Name: name, Capacity: 4, RetryAttempts: 1}, mem)
		if err := nd.Start(""); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		servers = append(servers, nd)
	}
	pub := mustNode(b, Config{Name: "bench-pub", Capacity: 2, Mobile: true, RetryAttempts: 1, Replication: replication, Counters: counters}, mem)
	if err := pub.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pub.Close() })
	for _, nd := range append(servers[1:], pub) {
		if err := nd.JoinViaContext(context.Background(), servers[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]hashkey.Key, ownedKeys)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("bench-obj-%d", i))
	}
	pub.OwnKeys(keys...)
	return pub, counters
}

// benchmarkPublish measures one publication by a publisher of 1, 100 or
// 10k records and reports the measured RPC count per publish. Full is the
// publish that carries the whole record set — the first one, a renewal,
// the one after the owned set or the ring changed: rpcs/op stays
// ~constant (≤ one frame chunk per distinct replica address) while
// records/op grows 10000×. Otherwise it is the publish a move makes after
// one full publish: the binding alone to every holder, so with the holder
// set held equal across sizes (every record on all three replicas) rpcs/op,
// B/op and allocs/op read the same at 10k records as at 1. `make bench`
// records both in BENCH_publish.json.
func benchmarkPublish(b *testing.B, ownedKeys int, full bool) {
	replication := 0
	if !full {
		replication = 3
	}
	pub, counters := benchPublishCluster(b, ownedKeys, replication)
	ctx := context.Background()
	if err := pub.PublishContext(ctx); err != nil {
		b.Fatal(err)
	}
	before := counters.Get("publish.rpcs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.publish(ctx, full); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rpcs := counters.Get("publish.rpcs") - before
	b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
}

func BenchmarkPublishBatch1(b *testing.B)   { benchmarkPublish(b, 0, true) }
func BenchmarkPublishBatch100(b *testing.B) { benchmarkPublish(b, 99, true) }
func BenchmarkPublishBatch10k(b *testing.B) { benchmarkPublish(b, 9999, true) }

func BenchmarkMovePublish1(b *testing.B)   { benchmarkPublish(b, 0, false) }
func BenchmarkMovePublish100(b *testing.B) { benchmarkPublish(b, 99, false) }
func BenchmarkMovePublish10k(b *testing.B) { benchmarkPublish(b, 9999, false) }

// BenchmarkPublishIngestParallel drives the server-side batch ingest path
// (handlePublishBatch) from all cores at once against a bare node — the
// hot serve loop as the wire dispatch runs it, minus the transport. The
// steady state re-ingests a known batch (same addresses, same epoch):
// every record overwrites its existing shard slot (a publish never
// touches membership), so the path must report 0 allocs/op. `make
// bench` records this in BENCH_publish.json and `make bench-gate`
// enforces the zero.
func BenchmarkPublishIngestParallel(b *testing.B) {
	n := mustNode(b, instrumented(Config{Name: "bench-ingest", Capacity: 4}), transport.NewMem())
	if err := n.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })

	self := wire.Entry{Key: hashkey.FromName("bench-mob"), Addr: "mem:bench-mob", Capacity: 2, Mobile: true, Epoch: 7}
	entries := make([]wire.Entry, 64)
	for i := range entries {
		entries[i] = wire.Entry{Key: hashkey.FromName(fmt.Sprintf("bench-ing-%d", i)), Addr: self.Addr, Epoch: self.Epoch}
	}
	msg := &wire.Message{Type: wire.TPublishBatch, Self: self, Entries: entries}
	n.handlePublishBatch(msg) // warm: all slots exist, membership knows the publisher

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.handlePublishBatch(msg)
		}
	})
}
