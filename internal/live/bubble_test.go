//go:build goexperiment.synctest

// synctest.Run needs the synchronous timer channels of Go 1.23 and
// later; a module at go 1.22 defaults to the asynchronous ones.
//go:debug asynctimerchan=0

package live

// Tests of the live stack in virtual time: inside a synctest bubble every
// sleep, lease, deadline and ticker advances a fake clock the moment all
// the bubble's goroutines block, so a bound can be asserted to the
// nanosecond. Needs Go 1.24 and GOEXPERIMENT=synctest:
//
//	GOEXPERIMENT=synctest go test -race -count=3 -run Bubble ./internal/live

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// inBubble runs f as a subtest started inside a synctest bubble. The
// subtest's goroutine is the bubble's, so the t.Cleanup closers that
// helpers register run in the bubble too; under a bare synctest.Run they
// run outside it, and a node or listener closed there leaves the bubble's
// goroutines running for ever.
func inBubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { t.Run("bubble", f) })
}

// TestBubbleRegistrationLapsesAtLeaseTTL: a registration is in R(self) for
// exactly its registrant's lease — there a nanosecond before the lease
// ends, gone the moment it does.
func TestBubbleRegistrationLapsesAtLeaseTTL(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const ttl = 300 * time.Millisecond
		mem := transport.NewMem()
		target := mustNode(t, Config{Name: "target", Capacity: 2, Mobile: true}, mem)
		if err := target.Start(""); err != nil {
			t.Fatal(err)
		}
		defer target.Close()
		registrant := mustNode(t, Config{Name: "registrant", Capacity: 2, LeaseTTL: ttl}, mem)
		if err := registrant.Start(""); err != nil {
			t.Fatal(err)
		}
		defer registrant.Close()

		start := time.Now()
		if err := registrant.RegisterWithContext(context.Background(), target.Addr()); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d != 0 {
			t.Fatalf("the register exchange took %v of virtual time, want 0", d)
		}
		time.Sleep(ttl - 1)
		if got := len(target.Registry()); got != 1 {
			t.Fatalf("registry at TTL-1ns holds %d entries, want 1", got)
		}
		time.Sleep(1)
		if got := len(target.Registry()); got != 0 {
			t.Fatalf("registry at TTL holds %d entries, want 0", got)
		}
	})
}

// TestBubblePoolShedsToItsCap pins the pool's one cap rule, trim, in
// virtual time: where it sheds, what it leaves over the cap and for how
// long, and the idle eviction's window.
func TestBubblePoolShedsToItsCap(t *testing.T) {
	// A newcomer's admission sheds the session used longest ago.
	t.Run("idle LRU at admission", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			mem := transport.NewMem()
			a, b, c := startPingServer(t, mem), startPingServer(t, mem), startPingServer(t, mem)
			counters := metrics.NewCounters()
			cfg := poolTestConfig("lru-client", counters, nil)
			cfg.Pool.MaxSessions = 2
			client := mustNode(t, cfg, mem)
			defer client.Close()

			for _, srv := range []*pingServer{a, b, c} {
				if err := client.PingContext(context.Background(), srv.l.Addr()); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Second)
			}
			if got := client.pool.sessionCount(); got != 2 {
				t.Errorf("sessions = %d, want 2", got)
			}
			if holdsSession(client.peers.get(a.l.Addr(), true)) {
				t.Error("a's session, the least recently used, is still held")
			}
			if evicted, over := counters.Get("pool.evictions.cap"), counters.Get("pool.fallbacks"); evicted != 1 || over != 0 {
				t.Errorf("evictions.cap = %d, fallbacks = %d, want 1 and 0", evicted, over)
			}
		})
	})

	// With every session busy an admission goes over the cap, and the pool
	// is back at its cap the instant that exchange ends.
	t.Run("over the cap while busy", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			const slowFor = time.Second
			mem := transport.NewMem()
			slow := startSlowServer(t, mem, slowFor)
			fast := startPingServer(t, mem)
			counters := metrics.NewCounters()
			cfg := poolTestConfig("busy-client", counters, nil)
			cfg.Pool.MaxSessions = 1
			client := mustNode(t, cfg, mem)
			defer client.Close()

			start := time.Now()
			slowDone := make(chan error, 1)
			go func() {
				_, err := client.pool.roundTrip(context.Background(), client.peers.get(slow.Addr(), true),
					&wire.Message{Type: wire.TDiscover, Key: hashkey.FromName("x")}, start, farOff())
				slowDone <- err
			}()
			synctest.Wait() // the slow exchange is parked on its reply

			if err := client.PingContext(context.Background(), fast.l.Addr()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d != 0 {
				t.Fatalf("the ping took %v of virtual time, want 0", d)
			}
			if got := client.pool.sessionCount(); got != 1 {
				t.Errorf("sessions as the overflow exchange ends = %d, want 1", got)
			}
			if evicted, over := counters.Get("pool.evictions.cap"), counters.Get("pool.fallbacks"); evicted != 1 || over != 1 {
				t.Errorf("evictions.cap = %d, fallbacks = %d, want 1 and 1", evicted, over)
			}
			if err := <-slowDone; err != nil {
				t.Fatalf("pinned exchange: %v", err)
			}
			if d := time.Since(start); d != slowFor {
				t.Errorf("pinned exchange took %v, want %v", d, slowFor)
			}
		})
	})

	// The janitor evicts an idle session no earlier than IdleTimeout after
	// its last use and no later than one tick (IdleTimeout/4) after that.
	t.Run("idle eviction window", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			const idle = time.Second
			mem := transport.NewMem()
			srv := startPingServer(t, mem)
			counters := metrics.NewCounters()
			cfg := poolTestConfig("idle-client", counters, nil)
			cfg.Pool.IdleTimeout = idle
			client := mustNode(t, cfg, mem)
			defer client.Close()

			if err := client.PingContext(context.Background(), srv.l.Addr()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(idle - 1)
			synctest.Wait()
			if got := client.pool.sessionCount(); got != 1 {
				t.Fatalf("sessions at IdleTimeout-1ns = %d, want 1", got)
			}
			time.Sleep(1 + idle/4)
			synctest.Wait()
			if got := client.pool.sessionCount(); got != 0 {
				t.Fatalf("sessions at IdleTimeout+IdleTimeout/4 = %d, want 0", got)
			}
			if got := counters.Get("pool.evictions.idle"); got != 1 {
				t.Errorf("pool.evictions.idle = %d, want 1", got)
			}
		})
	})
}

// TestBubbleExchangesStayBounded pins the bounds of an exchange that runs
// on its caller's goroutine — the reader reads under its own deadline,
// the owner of a batch writes under its own — in the shapes a peer can
// fail in.
func TestBubbleExchangesStayBounded(t *testing.T) {
	// A peer that never replies: the reader returns at exactly its
	// deadline, and the session, which lost nothing, stays up.
	t.Run("silent peer", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			mem := transport.NewMem()
			sink, _ := startUpdateSink(t, mem) // reads every frame, answers none
			counters := metrics.NewCounters()
			p, peers := newTestPool(mem, PoolConfig{}, counters)
			defer p.Close()
			start := time.Now()
			_, err := p.roundTrip(context.Background(), peers.get(sink.Addr(), true), &wire.Message{Type: wire.TPing}, start, start.Add(time.Second))
			if d := time.Since(start); d != time.Second || !transport.IsTimeout(err) {
				t.Fatalf("exchange with a silent peer = %v after %v, want a timeout after 1s", err, d)
			}
			// A ctx that ends first ends the read.
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			start = time.Now()
			_, err = p.roundTrip(ctx, peers.get(sink.Addr(), true), &wire.Message{Type: wire.TPing}, start, start.Add(time.Second))
			if d := time.Since(start); d != 300*time.Millisecond || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("exchange under a 300ms ctx = %v after %v, want the ctx's end after 300ms", err, d)
			}
			if got := p.sessionCount(); got != 1 || counters.Get("pool.broken") != 0 {
				t.Errorf("sessions = %d, pool.broken = %d, want the session kept", got, counters.Get("pool.broken"))
			}
		})
	})

	// The reader's reply is dropped: it hands the reader role on at its
	// deadline, and the follower, whose reply is late, reads it itself.
	t.Run("dropped reader reply", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			mem := transport.NewMem()
			faulty := transport.NewFaulty(mem, transport.FaultConfig{Drop: 1})
			l := startDiscoverEcho(t, faulty.Endpoint("server")) // the replies cross the faults
			counters := metrics.NewCounters()
			p, peers := newTestPool(mem, PoolConfig{}, counters)
			defer p.Close()
			pr := peers.get(l.Addr(), true)
			start := time.Now()
			type outcome struct {
				resp *wire.Message
				err  error
				took time.Duration
			}
			exchange := func(key hashkey.Key, by time.Duration) chan outcome {
				done := make(chan outcome, 1)
				go func() {
					resp, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TDiscover, Key: key}, time.Now(), start.Add(by))
					done <- outcome{resp, err, time.Since(start)}
				}()
				return done
			}
			reader := exchange(1, time.Second)
			synctest.Wait() // its reply dropped, the reader reads on
			faulty.SetConfig(transport.FaultConfig{DelayMin: 2 * time.Second, DelayMax: 2 * time.Second})
			follower := exchange(2, 5*time.Second)
			r, f := <-reader, <-follower
			if r.took != time.Second || !transport.IsTimeout(r.err) {
				t.Errorf("reader = %v after %v, want a timeout after 1s", r.err, r.took)
			}
			if f.took != 2*time.Second || f.err != nil || f.resp.Key != 2 {
				t.Errorf("follower = (%v, %v) after %v, want its reply after 2s", f.resp, f.err, f.took)
			}
			if got := counters.Get("pool.dials"); got != 1 || counters.Get("pool.broken") != 0 {
				t.Errorf("pool.dials = %d, pool.broken = %d, want one session throughout", got, counters.Get("pool.broken"))
			}
		})
	})

	// A peer that stops reading until its socket fills: the writer whose
	// write cannot finish returns at its deadline, or when its ctx ends
	// first. What it leaves unwritten is drained under its frame's
	// deadline, and when that passes with the stream stuck mid-frame the
	// session tears down, under the reader too.
	for _, tc := range []struct {
		name string
		ctx  time.Duration // 0: none
		want time.Duration
	}{{"non-reading peer", 0, time.Second}, {"non-reading peer, writer's ctx ends first", 500 * time.Millisecond, 500 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			inBubble(t, func(t *testing.T) {
				mem := transport.NewMem()
				silent := startSilentListener(t, mem, "")
				defer silent.stop()
				counters := metrics.NewCounters()
				p, peers := newTestPool(mem, PoolConfig{}, counters)
				defer p.Close()
				pr := peers.get(silent.l.Addr(), true)
				big := halfPipeFrame()
				start := time.Now()
				reader := make(chan error, 1)
				go func() {
					_, err := p.roundTrip(context.Background(), pr, big, start, start.Add(5*time.Second))
					reader <- err
				}()
				synctest.Wait() // its frame written, the reader waits for a reply
				ctx := context.Background()
				if tc.ctx > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.ctx)
					defer cancel()
				}
				_, err := p.roundTrip(ctx, pr, big, start, start.Add(time.Second))
				if d := time.Since(start); d != tc.want || err == nil {
					t.Fatalf("the blocked write's writer = %v after %v, want an error after %v", err, d, tc.want)
				}
				err = <-reader
				if d := time.Since(start); d != time.Second || !transport.IsTimeout(err) || !strings.Contains(err.Error(), "pooled send") {
					t.Errorf("reader = %v after %v, want the stuck write's teardown after 1s", err, d)
				}
				synctest.Wait() // the teardown that settled the reader finishes
				if got := p.sessionCount(); got != 0 || counters.Get("pool.broken") != 1 {
					t.Errorf("sessions = %d, pool.broken = %d, want the session torn down", got, counters.Get("pool.broken"))
				}
			})
		})
	}

	// A writer's ctx ends while its write waits on a peer that has
	// stopped reading for a while; a follower staged behind that write
	// and a reader parked in Recv still get their replies once the peer
	// reads again, on the same session: the writer's bounds cut only its
	// own wait.
	t.Run("writer's ctx ends mid-write", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			mem := transport.NewMem()
			l := startLateEcho(t, mem, 2*time.Second)
			counters := metrics.NewCounters()
			p, peers := newTestPool(mem, PoolConfig{}, counters)
			defer p.Close()
			pr := peers.get(l.Addr(), true)
			start := time.Now()
			type outcome struct {
				resp *wire.Message
				err  error
				took time.Duration
			}
			exchange := func(ctx context.Context, m *wire.Message) chan outcome {
				done := make(chan outcome, 1)
				go func() {
					resp, err := p.roundTrip(ctx, pr, m, time.Now(), start.Add(5*time.Second))
					done <- outcome{resp, err, time.Since(start)}
				}()
				return done
			}
			reader := exchange(context.Background(), halfPipeFrame())
			synctest.Wait() // written; the reader waits in Recv
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			writer := exchange(ctx, halfPipeFrame())
			synctest.Wait() // its write waits for room
			follower := exchange(context.Background(), &wire.Message{Type: wire.TDiscover, Key: 2})
			w := <-writer
			if w.took != 500*time.Millisecond || !errors.Is(w.err, context.DeadlineExceeded) {
				t.Errorf("writer = %v after %v, want its ctx's end after 500ms", w.err, w.took)
			}
			r, f := <-reader, <-follower
			if r.err != nil || r.took != 2*time.Second {
				t.Errorf("reader = %v after %v, want its reply after 2s", r.err, r.took)
			}
			if f.err != nil || f.resp.Key != 2 || f.took != 2*time.Second {
				t.Errorf("follower = (%v, %v) after %v, want its reply after 2s", f.resp, f.err, f.took)
			}
			if got := counters.Get("pool.dials"); got != 1 || counters.Get("pool.broken") != 0 {
				t.Errorf("pool.dials = %d, pool.broken = %d, want one session throughout", got, counters.Get("pool.broken"))
			}
		})
	})

	// A push's write waits on a peer that reads nothing; an exchange that
	// comes after it waits on no write of another's and returns at its
	// own deadline. The push's drain gives up at the push's deadline and
	// tears the session down.
	t.Run("exchange behind a push's blocked write", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			mem := transport.NewMem()
			silent := startSilentListener(t, mem, "")
			defer silent.stop()
			counters := metrics.NewCounters()
			p, peers := newTestPool(mem, PoolConfig{}, counters)
			defer p.Close()
			pr := peers.get(silent.l.Addr(), true)
			pushBy := time.Now().Add(10 * time.Second)
			for i := 0; i < 2; i++ {
				if err := p.send(pr, halfPipeFrame(), pushBy); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(time.Millisecond) // the pushes' write waits for room
			start := time.Now()
			_, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TPing}, start, start.Add(time.Second))
			if d := time.Since(start); d != time.Second || !transport.IsTimeout(err) {
				t.Fatalf("exchange behind a blocked push = %v after %v, want a timeout after 1s", err, d)
			}
			time.Sleep(time.Until(pushBy))
			synctest.Wait()
			if got := p.sessionCount(); got != 0 || counters.Get("pool.broken") != 1 {
				t.Errorf("sessions = %d, pool.broken = %d at the push's deadline, want the session torn down", got, counters.Get("pool.broken"))
			}
		})
	})
}

// halfPipeFrame is a frame that takes over half of what a peer leaves
// unread before a writer waits (wire.MaxFrame): the first fits, the
// second cannot.
func halfPipeFrame() *wire.Message {
	m := &wire.Message{Type: wire.TPublishBatch, Entries: make([]wire.Entry, 6000)}
	for i := range m.Entries {
		m.Entries[i] = wire.Entry{Key: hashkey.Key(i), Addr: strings.Repeat("x", 90)}
	}
	return m
}

// startLateEcho is a peer that reads nothing for its first wait on each
// conn, then answers every frame with a discover reply echoing its key.
func startLateEcho(t *testing.T, tr transport.Transport, wait time.Duration) transport.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				time.Sleep(wait)
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if c.Send(&wire.Message{Type: wire.TDiscoverResp, Seq: m.Seq, Key: m.Key, Found: true}) != nil {
						return
					}
				}
			}()
		}
	}()
	return l
}

// TestBubbleTeardownSettlesReaderAndFollowers: a teardown under a parked
// reader and parked followers settles each exchange exactly once, with the
// teardown's cause, at the instant it happens.
func TestBubbleTeardownSettlesReaderAndFollowers(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const callers = 8
		mem := transport.NewMem()
		sink, _ := startUpdateSink(t, mem)
		p, peers := newTestPool(mem, PoolConfig{}, nil)
		defer p.Close()
		pr := peers.get(sink.Addr(), true)
		start := time.Now()
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, err := p.roundTrip(context.Background(), pr, &wire.Message{Type: wire.TPing}, start, start.Add(time.Minute))
				errs <- err
			}()
		}
		synctest.Wait()
		pr.mu.Lock()
		s := pr.sess
		pr.mu.Unlock()
		s.mu.Lock()
		reading := s.reader != nil
		s.mu.Unlock()
		if !reading {
			t.Fatal("no exchange holds the reader role")
		}
		cause := errors.New("torn under test")
		time.Sleep(time.Second)
		s.teardown(cause)
		for i := 0; i < callers; i++ {
			if err := <-errs; !errors.Is(err, cause) {
				t.Errorf("caller %d: %v, want the teardown cause", i, err)
			}
		}
		if d := time.Since(start); d != time.Second {
			t.Errorf("the callers heard of the teardown after %v, want 1s", d)
		}
		synctest.Wait()
		if len(errs) != 0 {
			t.Errorf("%d more outcomes: an exchange was settled twice", len(errs))
		}
	})
}

// TestBubbleDialedSessionHoldsNoGoroutine: once an exchange has dialed its
// session and returned, the client holds no goroutine for it; the one new
// goroutine is the peer's, serving the accepted conn.
func TestBubbleDialedSessionHoldsNoGoroutine(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		server := startPingServer(t, mem)
		p, peers := newTestPool(mem, PoolConfig{}, nil)
		defer p.Close()
		synctest.Wait()
		before := runtime.NumGoroutine()
		if _, err := p.roundTrip(context.Background(), peers.get(server.l.Addr(), true), &wire.Message{Type: wire.TPing}, time.Now(), farOff()); err != nil {
			t.Fatal(err)
		}
		synctest.Wait()
		if after := runtime.NumGoroutine(); after != before+1 || p.sessionCount() != 1 {
			t.Errorf("goroutines %d → %d with %d sessions, want one more: the peer's, none for the session", before, after, p.sessionCount())
		}
	})
}
