package live

// Tests for the multiplexed connection pool: correct demultiplexing under
// concurrency and injected frame faults, idle eviction, transparent
// re-dial of broken sessions, the least-recently-used idle session shed at
// the cap, admission over the cap when every session is busy, and the head-of-line-blocking regression (a slow exchange must not delay a fast
// one sharing the connection).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// poolTestConfig returns a client policy tuned for fast tests: short
// per-attempt timeouts, quick retries, a suspicion threshold out of reach
// (injected faults must not trip breakers and mask pool behaviour).
func poolTestConfig(name string, counters *metrics.Counters, gauges *metrics.Gauges) Config {
	return Config{
		Name:               name,
		Capacity:           1,
		RequestTimeout:     300 * time.Millisecond,
		RetryAttempts:      8,
		RetryBase:          2 * time.Millisecond,
		RetryMax:           20 * time.Millisecond,
		SuspicionThreshold: 1 << 30,
		Counters:           counters,
		Gauges:             gauges,
	}
}

// newTestPool is the pool of a node that never starts, with a suspicion
// threshold out of reach, and the node's peer table for the sessions to
// hang off. The node's Close (p.n.Close) is the pool's shutdown.
func newTestPool(tr transport.Transport, cfg PoolConfig, counters *metrics.Counters) (*pool, *peerTable) {
	n, err := newNode(Config{Name: "pool", Pool: cfg, SuspicionThreshold: 1 << 30, Counters: counters}, tr)
	if err != nil {
		panic(err)
	}
	return n.pool, &n.peers
}

// TestPoolConcurrentDemuxUnderFaults hammers one pooled session from many
// goroutines through a lossy, duplicating link. Every exchange must
// complete (retries cover dropped frames), replies must land with their
// own callers (demux by seq), and the whole load must ride a handful of
// dials, not one per request.
func TestPoolConcurrentDemuxUnderFaults(t *testing.T) {
	mem := transport.NewMem()
	faulty := transport.NewFaulty(mem, transport.FaultConfig{
		Seed:      42,
		Drop:      0.08,
		Duplicate: 0.15,
	})

	server := mustNode(t, Config{Name: "demux-server", Capacity: 2}, faulty.Endpoint("server"))
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	client := mustNode(t, poolTestConfig("demux-client", counters, gauges), faulty.Endpoint("client"))
	defer client.Close()

	const workers = 16
	const perWorker = 20
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := client.PingContext(ctx, server.Addr()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("ping under faults: %v", err)
	}

	if got := client.Stats().PoolSessions; got != 1 {
		t.Errorf("PoolSessions = %d, want 1 (one peer)", got)
	}
	if got := gauges.Get("pool.inflight"); got != 0 {
		t.Errorf("pool.inflight gauge = %d after quiescence, want 0", got)
	}
	dials := counters.Get("pool.dials")
	if dials == 0 || dials > 20 {
		t.Errorf("pool.dials = %d, want a handful (reuse, not dial-per-request)", dials)
	}
	t.Logf("counters: %s", counters)
}

// pingServer is a minimal hand-rolled peer: answers pings, lets the test
// reach into its accepted connections to break them.
type pingServer struct {
	l     transport.Listener
	conns chan transport.Conn
}

func startPingServer(t *testing.T, tr transport.Transport) *pingServer {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	s := &pingServer{l: l, conns: make(chan transport.Conn, 16)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns <- c
			go func(c transport.Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if m.Type == wire.TPing {
						if err := c.Send(&wire.Message{Type: wire.TPong, Seq: m.Seq}); err != nil {
							return
						}
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return s
}

func TestPoolIdleEviction(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	cfg := poolTestConfig("idle-client", counters, gauges)
	cfg.Pool.IdleTimeout = 40 * time.Millisecond
	client := mustNode(t, cfg, mem)
	defer client.Close()

	ctx := context.Background()
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().PoolSessions; got != 1 {
		t.Fatalf("PoolSessions after ping = %d, want 1", got)
	}

	deadline := time.Now().Add(2 * time.Second)
	for client.Stats().PoolSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted; sessions=%d", client.Stats().PoolSessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := counters.Get("pool.evictions.idle"); got == 0 {
		t.Errorf("pool.evictions.idle = 0, want >= 1")
	}
	if got := gauges.Get("pool.sessions"); got != 0 {
		t.Errorf("pool.sessions gauge = %d after eviction, want 0", got)
	}

	// The next exchange transparently re-dials.
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatalf("ping after eviction: %v", err)
	}
	if got := counters.Get("pool.dials"); got != 2 {
		t.Errorf("pool.dials = %d, want 2 (initial + re-dial)", got)
	}
}

func TestPoolRedialAfterBrokenSession(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	counters := metrics.NewCounters()
	client := mustNode(t, poolTestConfig("redial-client", counters, nil), mem)
	defer client.Close()

	ctx := context.Background()
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatal(err)
	}
	first := <-server.conns
	first.Close() // the peer's end of the pooled session dies

	// A dialed session holds no goroutine to notice: the next exchange
	// finds the session broken, tears it down and re-dials without caller
	// involvement.
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatalf("ping after broken session: %v", err)
	}
	if got := counters.Get("pool.dials"); got != 2 {
		t.Errorf("pool.dials = %d, want 2", got)
	}
	if got := counters.Get("pool.broken"); got == 0 {
		t.Errorf("pool.broken = 0, want >= 1")
	}
}

// slowServer answers pings immediately but delays discover responses,
// replying out of order — the probe for head-of-line blocking.
func startSlowServer(t *testing.T, tr transport.Transport, slowFor time.Duration) transport.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				var sendMu sync.Mutex
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					switch m.Type {
					case wire.TPing:
						sendMu.Lock()
						c.Send(&wire.Message{Type: wire.TPong, Seq: m.Seq})
						sendMu.Unlock()
					case wire.TDiscover:
						go func(seq uint32) {
							time.Sleep(slowFor)
							sendMu.Lock()
							c.Send(&wire.Message{Type: wire.TDiscoverResp, Seq: seq, Found: true})
							sendMu.Unlock()
						}(m.Seq)
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// TestPoolNoHeadOfLineBlocking shares one session between a slow exchange
// and a fast one; the fast reply must come back while the slow exchange
// is still pending.
func TestPoolNoHeadOfLineBlocking(t *testing.T) {
	mem := transport.NewMem()
	const slowFor = 400 * time.Millisecond
	l := startSlowServer(t, mem, slowFor)

	p, peers := newTestPool(mem, PoolConfig{}, nil)
	defer p.n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	slowDone := make(chan error, 1)
	go func() {
		_, err := p.roundTrip(ctx, peers.get(l.Addr(), true), &wire.Message{Type: wire.TDiscover, Key: hashkey.FromName("slow")}, time.Now(), farOff())
		slowDone <- err
	}()
	// Let the slow request reach the wire before racing it.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if _, err := p.roundTrip(ctx, peers.get(l.Addr(), true), &wire.Message{Type: wire.TPing}, time.Now(), farOff()); err != nil {
		t.Fatalf("fast ping: %v", err)
	}
	fast := time.Since(start)
	if fast > slowFor/2 {
		t.Errorf("fast exchange took %v behind a %v-slow one: head-of-line blocking", fast, slowFor)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow exchange: %v", err)
	}
	if p.sessionCount() != 1 {
		t.Errorf("sessions = %d, want 1 (both exchanges share the conn)", p.sessionCount())
	}
}

// TestPoolSaturationGoesOverCap pins the only session slot on a busy
// peer; an exchange with a second peer must get a session over the cap and
// succeed, and the pool must be back inside its cap once that session goes
// idle — the overflow costs one short-lived connection.
func TestPoolSaturationGoesOverCap(t *testing.T) {
	mem := transport.NewMem()
	slow := startSlowServer(t, mem, 300*time.Millisecond)
	fastSrv := startPingServer(t, mem)

	counters := metrics.NewCounters()
	cfg := poolTestConfig("saturated-client", counters, nil)
	cfg.Pool.MaxSessions = 1
	client := mustNode(t, cfg, mem)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Occupy the single slot with an in-flight exchange.
	slowDone := make(chan error, 1)
	go func() {
		_, err := client.pool.roundTrip(ctx, client.peers.get(slow.Addr(), true), &wire.Message{Type: wire.TDiscover, Key: hashkey.FromName("x")}, time.Now(), farOff())
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	if err := client.PingContext(ctx, fastSrv.l.Addr()); err != nil {
		t.Fatalf("ping during saturation: %v", err)
	}
	if got := counters.Get("pool.fallbacks"); got == 0 {
		t.Errorf("pool.fallbacks = 0, want >= 1 (the ping found no slot)")
	}
	// The ping's session went idle while the pool was over its cap.
	if got := client.Stats().PoolSessions; got != 1 {
		t.Errorf("PoolSessions after the overflow exchange = %d, want 1 (the pinned session)", got)
	}
	if got := counters.Get("pool.evictions.cap"); got != 1 {
		t.Errorf("pool.evictions.cap = %d, want 1 (the overflow session, shed when idle)", got)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("pinned exchange: %v", err)
	}
	if got := client.Stats().PoolSessions; got != 1 {
		t.Errorf("PoolSessions at rest = %d, want 1", got)
	}
}

// TestPoolShedsLeastRecentlyUsedIdle fills a two-session pool with idle
// sessions to a and b, then exchanges with c: the newcomer's admission
// sheds the session used longest ago, a's, and nothing goes over the cap.
func TestPoolShedsLeastRecentlyUsedIdle(t *testing.T) {
	mem := transport.NewMem()
	a, b, c := startPingServer(t, mem), startPingServer(t, mem), startPingServer(t, mem)

	counters := metrics.NewCounters()
	cfg := poolTestConfig("lru-client", counters, nil)
	cfg.Pool.MaxSessions = 2
	client := mustNode(t, cfg, mem)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range []*pingServer{a, b, c} {
		if err := client.PingContext(ctx, srv.l.Addr()); err != nil {
			t.Fatalf("ping %s: %v", srv.l.Addr(), err)
		}
	}
	for _, want := range []struct {
		srv  *pingServer
		held bool
	}{{a, false}, {b, true}, {c, true}} {
		if held := holdsSession(client.peers.get(want.srv.l.Addr(), true)); held != want.held {
			t.Errorf("session to %s held = %v, want %v", want.srv.l.Addr(), held, want.held)
		}
	}
	if evicted, over := counters.Get("pool.evictions.cap"), counters.Get("pool.fallbacks"); evicted != 1 || over != 0 {
		t.Errorf("evictions.cap = %d, fallbacks = %d: want a's idle session shed (1) and no admission over the cap (0)", evicted, over)
	}
}

// holdsSession reports whether pr has a pooled session.
func holdsSession(pr *peer) bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.sess != nil
}

// TestPoolClosedIsTerminal verifies exchanges racing the node's Close fail
// with the non-retryable ErrStopped instead of hanging or retrying.
func TestPoolClosedIsTerminal(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	p, peers := newTestPool(mem, PoolConfig{}, nil)
	ctx := context.Background()
	if _, err := p.roundTrip(ctx, peers.get(server.l.Addr(), true), &wire.Message{Type: wire.TPing}, time.Now(), farOff()); err != nil {
		t.Fatal(err)
	}
	p.n.Close()
	_, err := p.roundTrip(ctx, peers.get(server.l.Addr(), true), &wire.Message{Type: wire.TPing}, time.Now(), farOff())
	if err != ErrStopped {
		t.Fatalf("roundTrip after Close: err = %v, want ErrStopped", err)
	}
	if Retryable(err) {
		t.Error("ErrStopped must not be retryable")
	}
}

// updateSink is a hand-rolled peer that counts the one-way TUpdate frames
// it receives.
func startUpdateSink(t *testing.T, tr transport.Transport) (transport.Listener, *atomic.Int64) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if m.Type == wire.TUpdate {
						got.Add(1)
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l, &got
}

// TestPoolPushAfterPeerClosedIdleSession: the peer closes a session that
// only pushes ride, which has no reader to notice. A push that follows
// still arrives: its writer finds the close first, and stages the push on
// a fresh session.
func TestPoolPushAfterPeerClosedIdleSession(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{{"tcp", &transport.TCP{}, "127.0.0.1:0"}, {"mem", transport.NewMem(), ""}} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			conns := make(chan transport.Conn, 4)
			var got atomic.Int64
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					conns <- c
					go func() {
						for {
							if _, err := c.Recv(); err != nil {
								return
							}
							got.Add(1)
						}
					}()
				}
			}()
			counters := metrics.NewCounters()
			p, peers := newTestPool(tc.tr, PoolConfig{}, counters)
			defer p.n.Close()
			pr := peers.get(l.Addr(), true)
			push := func(key hashkey.Key) {
				t.Helper()
				if err := p.send(pr, &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: key, Addr: "192.0.2.1:1", Epoch: 1}}, farOff()); err != nil {
					t.Fatal(err)
				}
			}
			push(1)
			waitFor(t, "the first push", func() bool { return got.Load() == 1 })
			(<-conns).Close()
			time.Sleep(20 * time.Millisecond) // the close reaches the client
			push(2)
			waitFor(t, "the push after the peer's close", func() bool { return got.Load() == 2 })
			if dials := counters.Get("pool.dials"); dials != 2 {
				t.Errorf("pool.dials = %d, want 2: the closed session, and its replacement", dials)
			}
		})
	}
}

// TestPoolEvictionWritesWhatItHolds: one-way pushes wait for no reply, but
// a session whose writer still holds pushes is not idle. At the MaxSessions
// cap a second peer's admission finds the pushing session being written,
// evicts nothing and stays over the cap. Once the writer gives its role
// up, every push has arrived, and the drain that wrote them trims the pool
// back to its cap: the pushing session, now idle and the least recently
// used, is the one evicted.
func TestPoolEvictionWritesWhatItHolds(t *testing.T) {
	const pushes = 4
	mem := transport.NewMem()
	sink, got := startUpdateSink(t, mem)
	other := startPingServer(t, mem)
	// The writer parks in its first write, as behind a full socket buffer,
	// while the pushes wait to be written.
	gate := &gatedFlush{Mem: mem, open: make(chan struct{})}
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate.open) }) }

	counters := metrics.NewCounters()
	p, peers := newTestPool(gate, PoolConfig{MaxSessions: 1}, counters)
	defer p.n.Close()
	defer open() // before Close, which waits for the parked writer
	for i := 0; i < pushes; i++ {
		push := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: hashkey.Key(i + 1), Addr: "192.0.2.1:1", Epoch: 1}}
		if err := p.send(peers.get(sink.Addr(), true), push, farOff()); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	waitFor(t, "the pushes' session to dial", func() bool { return counters.Get("pool.dials") == 1 })
	if _, err := p.acquire(peers.get(other.l.Addr(), true), farOff()); err != nil {
		t.Fatalf("acquire of a second peer over unwritten pushes: %v", err)
	}
	if evicted, over := counters.Get("pool.evictions.cap"), counters.Get("pool.fallbacks"); evicted != 0 || over != 1 {
		t.Fatalf("evictions.cap = %d, fallbacks = %d: want the pushing session kept (0) and the admission over the cap (1)", evicted, over)
	}
	if got := p.sessionCount(); got != 2 {
		t.Fatalf("sessions = %d while the pushes are written, want 2", got)
	}
	open()
	waitFor(t, "every push to arrive", func() bool { return got.Load() == pushes })
	waitFor(t, "the drain to trim the pool to its cap", func() bool { return counters.Get("pool.evictions.cap") == 1 })
	if got := p.sessionCount(); got != 1 {
		t.Fatalf("sessions = %d after the trim, want 1", got)
	}
	pr := peers.get(sink.Addr(), true)
	pr.mu.Lock()
	kept := pr.sess
	pr.mu.Unlock()
	if kept != nil {
		t.Error("the pushing session survived the trim: want it evicted as the least recently used")
	}
}

// TestPoolEvictionBacksOffABusySession: lruIdle picks an idle session, an
// exchange registers on it before the eviction takes its locks, and the
// eviction then leaves the session and that exchange untouched.
func TestPoolEvictionBacksOffABusySession(t *testing.T) {
	mem := transport.NewMem()
	srv := startPingServer(t, mem)
	counters := metrics.NewCounters()
	p, peers := newTestPool(mem, PoolConfig{}, counters)
	defer p.n.Close()
	pr := peers.get(srv.l.Addr(), true)
	s, err := p.acquire(pr, farOff())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the session to dial", func() bool { return counters.Get("pool.dials") == 1 })
	if victim, _ := p.lruIdle(); victim != s {
		t.Fatalf("lruIdle = %p, want the dialed session %p", victim, s)
	}
	w := waiterPool.Get().(*waiter)
	w.Message = wire.Message{Type: wire.TPing}
	if _, _, _, err := s.register(&w.Message, w, time.Now()); err != nil {
		t.Fatal(err)
	}
	if s.teardown(errEvictedCap) {
		t.Error("teardown of a busy session reported a one-way teardown")
	}
	s.mu.Lock()
	torn, pending := s.torn, s.pending[w.Seq]
	s.mu.Unlock()
	if torn || pending != w || w.settled.Load() {
		t.Fatalf("after the eviction backed off: torn %v, exchange pending %v, settled %v; want the session and its exchange untouched",
			torn, pending == w, w.settled.Load())
	}
	if evicted, n := counters.Get("pool.evictions.cap"), p.sessionCount(); evicted != 0 || n != 1 {
		t.Fatalf("evictions.cap = %d, sessions = %d: want 0 and 1", evicted, n)
	}
	s.leave(w)
}

// gatedFlush is a Mem transport whose dialed conns hold every Flush until
// open closes.
type gatedFlush struct {
	*transport.Mem
	open chan struct{}
}

func (g *gatedFlush) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := g.Mem.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &gatedFlushConn{Conn: c, open: g.open}, nil
}

type gatedFlushConn struct {
	transport.Conn
	open chan struct{}
}

func (c *gatedFlushConn) Flush() error {
	<-c.open
	return c.Conn.Flush()
}

// gatedDial is a Mem transport whose dials wait until open closes, then
// fail with fail when it is set.
type gatedDial struct {
	*transport.Mem
	open chan struct{}
	fail error
}

func (g *gatedDial) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g.fail != nil {
		return nil, g.fail
	}
	return g.Mem.DialContext(ctx, addr)
}

// sessionRequests reports how many requests wait on pr's session.
func sessionRequests(pr *peer) int {
	pr.mu.Lock()
	s := pr.sess
	pr.mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// TestPoolOneWayReturnsBeforeItsDial: a one-way send to a peer whose dial
// is parked returns at once, and its frame is written when the dial
// completes.
func TestPoolOneWayReturnsBeforeItsDial(t *testing.T) {
	mem := transport.NewMem()
	sink, got := startUpdateSink(t, mem)
	gate := &gatedDial{Mem: mem, open: make(chan struct{})}
	p, peers := newTestPool(gate, PoolConfig{}, nil)
	defer p.n.Close()
	push := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: 1, Addr: "192.0.2.1:1", Epoch: 1}}
	if err := p.send(peers.get(sink.Addr(), true), push, farOff()); err != nil {
		t.Fatalf("one-way send behind a parked dial: %v", err)
	}
	close(gate.open)
	waitFor(t, "the queued frame to be written once the dial completes", func() bool { return got.Load() == 1 })
}

// TestPoolRequestBehindFailedDial: a request queued behind a dial that
// fails gets that dial's error, retryable like any broken session's.
func TestPoolRequestBehindFailedDial(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)
	gate := &gatedDial{Mem: mem, open: make(chan struct{}), fail: transport.ErrRefused}
	p, peers := newTestPool(gate, PoolConfig{}, nil)
	defer p.n.Close()
	pr := peers.get(server.l.Addr(), true)
	done := make(chan error, 1)
	go func() {
		_, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TPing}, time.Now(), farOff())
		done <- err
	}()
	waitFor(t, "the request to queue behind the dial", func() bool { return sessionRequests(pr) == 1 })
	close(gate.open)
	err := <-done
	if !errors.Is(err, transport.ErrRefused) || !Retryable(err) {
		t.Fatalf("request behind a refused dial = %v, want the retryable refusal", err)
	}
	waitFor(t, "the failed session to go", func() bool { return p.sessionCount() == 0 })
}

// TestPoolPushesToRefusingHeadTripBreaker: SuspicionThreshold one-way
// pushes to a head that refuses every dial open its breaker, and the next
// push fails fast — though each push returned before its dial failed. Each
// dial is refused only once its push has returned: an instant refusal
// could tear the session down before the push is queued on it.
func TestPoolPushesToRefusingHeadTripBreaker(t *testing.T) {
	const threshold = 3
	counters := metrics.NewCounters()
	gate := &gatedDial{Mem: transport.NewMem(), open: make(chan struct{}), fail: transport.ErrRefused}
	n := mustNode(t, Config{Name: "pusher", RequestTimeout: time.Second, SuspicionThreshold: threshold, Counters: counters}, gate)
	defer n.Close()
	const head = "mem:refusing"
	push := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: 1, Addr: "192.0.2.1:1", Epoch: 1}}
	pr := n.peers.get(head, true)
	for i := int32(1); i <= threshold; i++ {
		if err := n.oneWay(context.Background(), head, push); err != nil {
			t.Fatalf("push %d: %v, want it queued behind the dial", i, err)
		}
		gate.open <- struct{}{} // refuse this push's dial
		waitFor(t, "the refused dial to count against the head", func() bool { return pr.fails.Load() == i })
	}
	// The breaker counts the failure before it opens.
	waitFor(t, "the breaker to open", pr.suspect)
	if got := counters.Get("breaker.trips"); got != 1 {
		t.Fatalf("breaker.trips %d after %d refused dials: want the breaker open once", got, threshold)
	}
	if err := n.oneWay(context.Background(), head, push); !errors.Is(err, ErrPeerSuspect) {
		t.Errorf("push to a suspect head = %v, want ErrPeerSuspect", err)
	}
}

// TestPoolFailedDialCountsOnce: a request and a one-way frame wait behind
// one dial that fails. The request's caller records the failure; the pool,
// which records a dial only one-way frames were waiting on, stays silent:
// one dial, one failure on the breaker.
func TestPoolFailedDialCountsOnce(t *testing.T) {
	gate := &gatedDial{Mem: transport.NewMem(), open: make(chan struct{}), fail: transport.ErrRefused}
	cfg := poolTestConfig("dial-once", nil, nil)
	cfg.RetryAttempts = 1
	n := mustNode(t, cfg, gate)
	defer n.Close()
	const addr = "mem:peer"
	pr := n.peers.get(addr, true)
	push := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: 1, Addr: "192.0.2.1:1", Epoch: 1}}
	if err := n.oneWay(context.Background(), addr, push); err != nil {
		t.Fatalf("push behind the parked dial: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := n.request(context.Background(), addr, &wire.Message{Type: wire.TPing})
		done <- err
	}()
	waitFor(t, "the request to queue behind the dial", func() bool { return sessionRequests(pr) == 1 })
	close(gate.open)
	if err := <-done; !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("request = %v, want the refusal", err)
	}
	waitFor(t, "the failed session to go", func() bool { return n.pool.sessionCount() == 0 })
	if got := pr.fails.Load(); got != 1 {
		t.Errorf("one failed dial counted %d breaker failures, want 1", got)
	}
}

// gatedSockTCP dials TCP under a framed conn whose socket counts its
// writes and holds the first until open closes, as a full socket buffer
// would.
type gatedSockTCP struct {
	transport.TCP
	open   chan struct{}
	writes atomic.Int64
}

func (g *gatedSockTCP) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return transport.NewConn(&gatedSock{Conn: c, g: g}), nil
}

type gatedSock struct {
	net.Conn
	g *gatedSockTCP
}

func (c *gatedSock) Write(p []byte) (int, error) {
	if c.g.writes.Add(1) == 1 {
		<-c.g.open
	}
	return c.Conn.Write(p)
}

// TestPoolParkedCallersShareWrites: callers that park behind a write in
// progress leave together once it is done — 16 exchanges take fewer
// socket writes than frames — and the pool counts every frame and every
// write.
func TestPoolParkedCallersShareWrites(t *testing.T) {
	const callers = 16
	l := startDiscoverEcho(t, &transport.TCP{})
	gate := &gatedSockTCP{open: make(chan struct{})}
	counters := metrics.NewCounters()
	p, peers := newTestPool(gate, PoolConfig{}, counters)
	defer p.n.Close()
	pr := peers.get(l.Addr(), true)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(key hashkey.Key) {
			resp, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TDiscover, Key: key}, time.Now(), farOff())
			if err == nil && resp.Key != key {
				err = fmt.Errorf("discover of %v answered for %v", key, resp.Key)
			}
			errs <- err
		}(hashkey.Key(i + 1))
	}
	parkedSession(t, pr, callers)
	close(gate.open)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	writes := gate.writes.Load()
	if writes >= callers {
		t.Errorf("%d exchanges took %d socket writes, want fewer than one each", callers, writes)
	}
	if frames, flushes := counters.Get("pool.frames"), counters.Get("pool.flushes"); frames != callers || flushes != uint64(writes) {
		t.Errorf("pool.frames = %d, pool.flushes = %d; want %d frames in the %d writes the socket saw", frames, flushes, callers, writes)
	}
}

// startDiscoverEcho is a hand-rolled peer that answers every discover with
// its own key, on the conn's reader.
func startDiscoverEcho(t *testing.T, tr transport.Transport) transport.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(&wire.Message{Type: wire.TDiscoverResp, Seq: m.Seq, Key: m.Key, Found: true}); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// parkedSession returns pr's session once n exchanges are parked on it.
func parkedSession(t *testing.T, pr *peer, n int) *session {
	t.Helper()
	waitFor(t, "the callers to park", func() bool { return sessionRequests(pr) == n })
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.sess
}

// TestRoundTripSettlesOnceAcrossDeadline runs distinct-key discovers over
// a link whose reply delays straddle the attempt's deadline, so replies
// and deadlines race to settle the same waiters, which are recycled
// between exchanges. Each exchange ends with exactly one outcome, a reply
// only ever reaches the exchange that asked for it, and every reply that
// lost to its deadline is counted as an orphan.
func TestRoundTripSettlesOnceAcrossDeadline(t *testing.T) {
	const timeout = 20 * time.Millisecond
	var replies atomic.Int64
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Latency: func(from, to string) time.Duration {
			if to != "" {
				return 0 // requests leave at once
			}
			return time.Duration(replies.Add(1)%5) * timeout / 2 // replies: 0 to twice the deadline
		},
	})
	l := startDiscoverEcho(t, faulty.Endpoint("server"))
	counters := metrics.NewCounters()
	p, peers := newTestPool(faulty.Endpoint("client"), PoolConfig{}, counters)
	defer p.n.Close()
	pr := peers.get(l.Addr(), true)

	const workers, each = 16, 25
	var answered, timedOut atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := hashkey.Key(w*each + i + 1)
				start := time.Now()
				resp, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TDiscover, Key: key}, start, start.Add(timeout))
				switch {
				case err == nil && resp != nil && resp.Key == key:
					answered.Add(1)
				case err == nil && resp != nil:
					t.Errorf("discover of %v answered for %v: a reply crossed exchanges", key, resp.Key)
				case resp == nil && transport.IsTimeout(err):
					timedOut.Add(1)
				default:
					t.Errorf("discover of %v = (%v, %v), want a reply or a timeout", key, resp, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if answered.Load() == 0 || timedOut.Load() == 0 {
		t.Fatalf("%d answered, %d timed out: the delays must straddle the deadline", answered.Load(), timedOut.Load())
	}
	// Replies are read while an exchange waits. One more exchange reads the
	// late replies still on their way, which the server sends ahead of its.
	if _, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TDiscover, Key: 1}, time.Now(), farOff()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every late reply to be counted as an orphan", func() bool {
		return counters.Get("pool.demux.orphans") == uint64(timedOut.Load())
	})
}

// TestTeardownSettlesParkedCallers: a session torn down under 64 parked
// callers hands each of them its cause at once; none waits for its
// deadline.
func TestTeardownSettlesParkedCallers(t *testing.T) {
	const callers = 64
	mem := transport.NewMem()
	sink, _ := startUpdateSink(t, mem) // reads every frame, answers none
	p, peers := newTestPool(mem, PoolConfig{}, nil)
	defer p.n.Close()
	pr := peers.get(sink.Addr(), true)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TPing}, time.Now(), farOff())
			errs <- err
		}()
	}
	s := parkedSession(t, pr, callers)
	cause := errors.New("torn under test")
	torn := time.Now()
	s.teardown(cause)
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, cause) {
			t.Errorf("parked caller %d: %v, want the teardown cause", i, err)
		}
	}
	if took := time.Since(torn); took > 100*time.Millisecond {
		t.Errorf("%d parked callers took %v to hear of the teardown, want under 100ms", callers, took)
	}
}

// TestRoundTripCancelledWhileParked: a caller whose ctx ends while it is
// parked returns ctx's error and leaves nothing pending on the session.
func TestRoundTripCancelledWhileParked(t *testing.T) {
	mem := transport.NewMem()
	sink, _ := startUpdateSink(t, mem)
	p, peers := newTestPool(mem, PoolConfig{}, nil)
	defer p.n.Close()
	pr := peers.get(sink.Addr(), true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.roundTrip(ctx, pr, &wire.Message{Type: wire.TPing}, time.Now(), farOff())
		done <- err
	}()
	s := parkedSession(t, pr, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller = %v, want context.Canceled", err)
	}
	s.mu.Lock()
	pending, inflight := len(s.pending), s.inflight
	s.mu.Unlock()
	if pending != 0 || inflight != 0 {
		t.Errorf("after the cancel: %d pending, %d in flight, want none", pending, inflight)
	}
}
