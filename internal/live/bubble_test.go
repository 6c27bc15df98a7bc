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
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"strings"
	"sync"
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
			defer p.n.Close()
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
			defer p.n.Close()
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
				defer p.n.Close()
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
			defer p.n.Close()
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
			defer p.n.Close()
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
	m := &wire.Message{Type: wire.TPublishBatch, Entries: make([]wire.Entry, 9)}
	for i := range m.Entries {
		m.Entries[i] = wire.Entry{Key: hashkey.Key(i), Addr: bigAddr}
	}
	return m
}

var bigAddr = strings.Repeat("x", 60000)

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
		defer p.n.Close()
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
		defer p.n.Close()
		synctest.Wait()
		before := bubbleGoroutines()
		if _, err := p.roundTrip(context.Background(), peers.get(server.l.Addr(), true), &wire.Message{Type: wire.TPing}, time.Now(), farOff()); err != nil {
			t.Fatal(err)
		}
		synctest.Wait()
		if after := bubbleGoroutines(); after != before+1 || p.sessionCount() != 1 {
			t.Errorf("goroutines %d → %d with %d sessions, want one more: the peer's, none for the session", before, after, p.sessionCount())
		}
	})
}

// TestBubblePoolSchedules explores the pool's one-way and eviction paths
// schedule by schedule. One exchange (X) and two pushes (A, B) share one
// session with a scripted peer; the peer stops reading (S), resumes (R)
// and closes its conns (C); the pool evicts its idle sessions (E). Every
// order of those seven events is run, each event at its own virtual
// instant a step apart — R after S, and A before B, since the pushes are
// alike — and the pool's node's Close ends each schedule a step after the
// last. The exchange's ctx ends 1.25 steps after it starts and its
// deadline is 2.75 steps; a push's deadline is 3.5 steps after its send.
// Every frame takes over half of what a peer leaves unread before a writer
// waits, so a stopped peer blocks the second write. After each schedule:
//   - the exchange returned once, and no later than its ctx's end;
//   - Node.Close returned at the instant it was called;
//   - the peer received each push once, or the schedule explains the
//     loss: the peer closed after the send, or was not reading at the
//     push's deadline;
//   - pool.inflight is 0 and the bubble's goroutines are back at their
//     baseline.
func TestBubblePoolSchedules(t *testing.T) {
	events := []byte("XABSRCE")
	runs, began := 0, time.Now()
	permute(events, 0, func(order []byte) {
		if bytes.IndexByte(order, 'R') < bytes.IndexByte(order, 'S') || bytes.IndexByte(order, 'B') < bytes.IndexByte(order, 'A') {
			return
		}
		runs++
		schedule := string(order)
		result, ended := make(chan []string, 1), make(chan struct{})
		go func() {
			synctest.Run(func() { result <- runPoolSchedule(schedule) })
			close(ended)
		}()
		select {
		case faults := <-result:
			<-ended // the next schedule's baseline holds none of this one's
			for _, msg := range faults {
				t.Errorf("schedule %s: %s", schedule, msg)
			}
		case <-time.After(10 * time.Second): // real time: a wait no virtual instant ends
			t.Fatalf("schedule %s: hung, with a goroutine blocked where no timer reaches it", schedule)
		}
	})
	t.Logf("%d schedules in %v", runs, time.Since(began))
}

// permute calls f with every ordering of s[k:] behind s[:k], in place.
func permute(s []byte, k int, f func([]byte)) {
	if k == len(s) {
		f(s)
		return
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		permute(s, k+1, f)
		s[k], s[i] = s[i], s[k]
	}
}

// runPoolSchedule runs one schedule of TestBubblePoolSchedules inside its
// bubble and returns what its checks found wrong.
func runPoolSchedule(schedule string) (faults []string) {
	const step = time.Second
	fault := func(format string, args ...any) { faults = append(faults, fmt.Sprintf(format, args...)) }
	baseline := bubbleGoroutines()
	mem := transport.NewMem()
	sp := startScriptedPeer(mem, step/4)
	gauges := metrics.NewGauges()
	n, err := newNode(Config{Name: "pool", SuspicionThreshold: 1 << 30, Counters: metrics.NewCounters(), Gauges: gauges}, mem)
	if err != nil {
		panic(err)
	}
	p := n.pool
	pr := n.peers.get(sp.l.Addr(), true)

	type outcome struct {
		err  error
		took time.Duration
	}
	exchange := make(chan outcome, 2)
	t0 := time.Now()
	instant := func(i int) time.Time { return t0.Add(time.Duration(i+1) * step) }
	sent := map[hashkey.Key]int{} // push key → the event index of its send
	stopAt, resumeAt, closeAt := -1, -1, -1
	for i, ev := range []byte(schedule) {
		time.Sleep(time.Until(instant(i)))
		switch ev {
		case 'X':
			go func() {
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), 5*step/4)
				defer cancel()
				_, err := p.roundTrip(ctx, pr, halfPipeFrame(), start, start.Add(11*step/4))
				exchange <- outcome{err, time.Since(start)}
			}()
		case 'A', 'B':
			key := hashkey.Key(ev)
			sent[key] = i
			push := halfPipeFrame()
			push.Type, push.Self.Key = wire.TUpdate, key
			if err := p.send(pr, push, time.Now().Add(7*step/2)); err != nil {
				fault("push %c refused: %v", ev, err)
			}
		case 'S':
			stopAt = i
			sp.setReading(false)
		case 'R':
			resumeAt = i
			sp.setReading(true)
		case 'C':
			closeAt = i
			sp.closeConns()
		case 'E':
			p.evictIdle(time.Now().Add(time.Hour))
		}
	}
	time.Sleep(time.Until(instant(len(schedule))))
	closing := time.Now()
	n.Close()
	if d := time.Since(closing); d != 0 {
		fault("Node.Close took %v", d)
	}
	synctest.Wait() // the peer reads what the pipe still holds, then EOF

	if o := <-exchange; o.took > 5*step/4 {
		fault("the exchange returned %v after it began, past its ctx's end (err %v)", o.took, o.err)
	}
	if len(exchange) != 0 {
		fault("the exchange returned twice")
	}
	for key, at := range sent {
		by := instant(at).Add(7 * step / 2)
		stoppedAtDeadline := instant(stopAt).Before(by) && instant(resumeAt).After(by)
		closedAfter := closeAt > at
		switch got := sp.received(key); {
		case got > 1:
			fault("push %c received %d times", key, got)
		case got == 0 && !closedAfter && !stoppedAtDeadline:
			fault("push %c lost with no close after its send and the peer reading at its deadline", key)
		}
	}
	if got := gauges.Get("pool.inflight"); got != 0 {
		fault("pool.inflight = %d after Close", got)
	}
	sp.stop()
	synctest.Wait()
	if got := bubbleGoroutines(); got != baseline {
		fault("%d goroutines in the bubble after Close, want the baseline %d", got, baseline)
	}
	return faults
}

// bubbleGoroutines counts the goroutines of the synctest bubble running,
// which runtime.NumGoroutine cannot tell from the process's others.
func bubbleGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte(", synctest group "))
}

// scriptedPeer is a peer whose reading a test turns off and on: it answers
// every request with an ack, counts the pushes (TUpdate) it reads by key,
// and reads in polls of a fixed length, so a peer told to stop reads
// nothing more from the next poll on.
type scriptedPeer struct {
	l    transport.Listener
	poll time.Duration

	mu      sync.Mutex
	resumed chan struct{} // nil while reading; closed when reading resumes
	conns   []transport.Conn
	got     map[hashkey.Key]int
}

func startScriptedPeer(tr transport.Transport, poll time.Duration) *scriptedPeer {
	l, err := tr.Listen("")
	if err != nil {
		panic(err)
	}
	sp := &scriptedPeer{l: l, poll: poll, got: map[hashkey.Key]int{}}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
			go sp.serve(c)
		}
	}()
	return sp
}

func (sp *scriptedPeer) serve(c transport.Conn) {
	defer c.Close()
	for {
		sp.mu.Lock()
		resumed := sp.resumed
		sp.mu.Unlock()
		if resumed != nil {
			<-resumed
		}
		c.SetReadDeadline(time.Now().Add(sp.poll))
		m, err := c.Recv()
		switch {
		case transport.IsTimeout(err):
			continue
		case err != nil:
			return
		case m.Type == wire.TUpdate:
			sp.mu.Lock()
			sp.got[m.Self.Key]++
			sp.mu.Unlock()
		default:
			c.Send(&wire.Message{Type: wire.TPublishAck, Seq: m.Seq, Found: true})
		}
	}
}

func (sp *scriptedPeer) setReading(on bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	switch {
	case on && sp.resumed != nil:
		close(sp.resumed)
		sp.resumed = nil
	case !on && sp.resumed == nil:
		sp.resumed = make(chan struct{})
	}
}

// closeConns closes every conn the peer has accepted; it accepts more.
func (sp *scriptedPeer) closeConns() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, c := range sp.conns {
		c.Close()
	}
	sp.conns = nil
}

func (sp *scriptedPeer) received(key hashkey.Key) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.got[key]
}

func (sp *scriptedPeer) stop() {
	sp.setReading(true)
	sp.l.Close()
	sp.closeConns()
}

// TestBubbleCloseJoinsPool: with the writer of last resort blocked on a
// peer that reads nothing and a dial in flight, the pool's node's Close
// returns at the instant it is called, and leaves the bubble's exact
// goroutine baseline: the teardown's close ends the blocked write, the
// end of the node's lifetime the dial.
func TestBubbleCloseJoinsPool(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		silent := startSilentListener(t, mem, "")
		defer silent.stop()
		synctest.Wait()
		baseline := bubbleGoroutines()
		p, peers := newTestPool(stuckDial{Mem: mem, stuck: "mem:stuck"}, PoolConfig{}, nil)
		pr := peers.get(silent.l.Addr(), true)
		for i := 0; i < 2; i++ { // the second cannot fit: its write blocks
			if err := p.send(pr, halfPipeFrame(), farOff()); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.send(peers.get("mem:stuck", true), &wire.Message{Type: wire.TUpdate}, farOff()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Second)
		if got := bubbleGoroutines(); got != baseline+3 {
			t.Fatalf("%d goroutines over the baseline before Close, want 3: the janitor, the blocked writer, the dial", got-baseline)
		}
		start := time.Now()
		p.n.Close()
		if d := time.Since(start); d != 0 {
			t.Errorf("Node.Close took %v, want 0", d)
		}
		synctest.Wait()
		if got := bubbleGoroutines(); got != baseline {
			t.Errorf("%d goroutines after Node.Close, want the baseline %d", got, baseline)
		}
	})
}

// TestBubbleCloseJoinsNode: a started node runs its accept loop, the
// pool's janitor, two maintenance loops whose stop is never called — the
// gossip one parked in an exchange on a session dialing a peer that never
// answers the dial — and the writer of last resort blocked on a peer that
// reads nothing. Node.Close returns at the instant it is called, with the
// gossip's exchange already ended by the teardown, ErrStopped, and logged
// by its loop: Close joins the maintenance loops as it joins everything
// else the node started, and the bubble is back at its exact baseline.
func TestBubbleCloseJoinsNode(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		silent := startSilentListener(t, mem, "")
		defer silent.stop()
		synctest.Wait()
		baseline := bubbleGoroutines()
		var logged lockedLog
		n := mustNode(t, Config{Name: "node", RequestTimeout: time.Minute, Logger: log.New(&logged, "", 0)},
			stuckDial{Mem: mem, stuck: "mem:stuck"})
		if err := n.Start(""); err != nil {
			t.Fatal(err)
		}
		n.members.apply(direct, wire.Entry{Key: hashkey.FromName("stuck"), Addr: "mem:stuck", Capacity: 1})
		n.StartMaintenance(MaintainConfig{GossipInterval: 100 * time.Millisecond, ProbeInterval: time.Second})
		pr := n.peers.get(silent.l.Addr(), true)
		for i := 0; i < 2; i++ { // the second cannot fit: its write blocks
			if err := n.pool.send(pr, halfPipeFrame(), farOff()); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Second)
		if got := bubbleGoroutines(); got != baseline+6 {
			t.Fatalf("%d goroutines over the baseline before Close, want 6: the accept loop, the janitor, two maintenance loops, the blocked writer, the dial", got-baseline)
		}
		start := time.Now()
		n.Close()
		if d := time.Since(start); d != 0 {
			t.Errorf("Node.Close took %v, want 0", d)
		}
		if got, want := logged.String(), "maintenance gossip: "+ErrStopped.Error(); !strings.Contains(got, want) {
			t.Errorf("when Close returned, the gossip loop had logged %q, want its exchange ended with %q", got, want)
		}
		synctest.Wait()
		if got := bubbleGoroutines(); got != baseline {
			t.Errorf("%d goroutines after Node.Close, want the baseline %d", got, baseline)
		}
	})
}

// lockedLog is a Logger's sink a test reads while the node may still be
// writing to it.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// stuckDial is a Mem transport whose dials to stuck wait for their ctx.
type stuckDial struct {
	*transport.Mem
	stuck string
}

func (d stuckDial) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	if addr == d.stuck {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return d.Mem.DialContext(ctx, addr)
}

// TestBubbleCloseJoinsPublish: Node.Close during a publish to a replica
// that reads nothing returns at the instant it is called, fails the
// publish, and leaves the bubble's exact goroutine baseline: the publish's
// fan-out is the node's to join.
func TestBubbleCloseJoinsPublish(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		silent := startSilentListener(t, mem, "")
		defer silent.stop()
		synctest.Wait()
		baseline := bubbleGoroutines()
		mover := mustNode(t, Config{Name: "mover", Mobile: true, RequestTimeout: time.Minute}, mem)
		if err := mover.Start(""); err != nil {
			t.Fatal(err)
		}
		mover.members.apply(direct, wire.Entry{Key: hashkey.FromName("replica"), Addr: silent.l.Addr(), Capacity: 1})
		published := make(chan error, 1)
		go func() { published <- mover.PublishContext(context.Background()) }()
		time.Sleep(time.Second) // the publish waits on the silent replica
		start := time.Now()
		mover.Close()
		if d := time.Since(start); d != 0 {
			t.Errorf("Node.Close took %v, want 0", d)
		}
		if err := <-published; err == nil {
			t.Error("the publish cut by Close succeeded")
		}
		synctest.Wait()
		if got := bubbleGoroutines(); got != baseline {
			t.Errorf("%d goroutines after Node.Close, want the baseline %d", got, baseline)
		}
	})
}

// TestBubbleCloseJoinsFlight: a resolve whose caller gave up hands its
// flight to a second run under the node's lifetime, here parked on the
// first of three replicas that read nothing. Node.Close cuts that run,
// returns at the instant it is called with the run ended — every replica
// it had left to ask counted as failed — and leaves the bubble's exact
// goroutine baseline: the detached flight is the node's to join. Once the
// node has stopped, a flight its caller gives up on runs no second time.
func TestBubbleCloseJoinsFlight(t *testing.T) {
	const replicas = 3
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		var ring []wire.Entry
		for i := 0; i < replicas; i++ {
			silent := startSilentListener(t, mem, "")
			defer silent.stop()
			ring = append(ring, wire.Entry{Key: hashkey.FromName(fmt.Sprint("replica-", i)), Addr: silent.l.Addr(), Capacity: 1})
		}
		synctest.Wait()
		baseline := bubbleGoroutines()
		counters := metrics.NewCounters()
		client := mustNode(t, Config{Name: "client", Mobile: true, Replication: replicas, RequestTimeout: time.Minute, Counters: counters}, mem)
		client.members.apply(direct, ring...)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if _, err := client.ResolveContext(ctx, hashkey.FromName("target")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("a resolve its ctx cut = %v, want the ctx's deadline", err)
		}
		time.Sleep(time.Second) // the second run waits on a silent replica
		if got := counters.Get("resolve.discoveries"); got != 2 {
			t.Fatalf("resolve.discoveries = %d, want 2: the caller's run and the detached one", got)
		}
		start := time.Now()
		client.Close()
		if d := time.Since(start); d != 0 {
			t.Errorf("Node.Close took %v, want 0", d)
		}
		if got := counters.Get("rpc.failures") + counters.Get("rpc.fatal"); got != 2*replicas {
			t.Errorf("%d replicas' exchanges had failed when Close returned, want each run's %d", got, replicas)
		}
		if _, err := client.ResolveContext(ctx, hashkey.FromName("other")); err == nil {
			t.Error("a resolve on the closed node succeeded")
		}
		synctest.Wait()
		if got := counters.Get("resolve.discoveries"); got != 3 {
			t.Errorf("resolve.discoveries = %d after a resolve on the closed node, want 3: no second run", got)
		}
		if got := bubbleGoroutines(); got != baseline {
			t.Errorf("%d goroutines after Node.Close, want the baseline %d", got, baseline)
		}
	})
}

// TestBubbleFlightOverSilentReplicasEnds: a resolve under a ctx that never
// ends, over two replicas that read nothing, gives each replica its own
// three attempts of RequestTimeout (1s) and fails once both have had
// them: after 6s plus the pauses, each at most 10ms then 20ms, so within
// 6.06s. Each replica has one failed exchange on record.
func TestBubbleFlightOverSilentReplicasEnds(t *testing.T) {
	const replicas = 2
	inBubble(t, func(t *testing.T) {
		mem := transport.NewMem()
		var ring []wire.Entry
		for i := 0; i < replicas; i++ {
			silent := startSilentListener(t, mem, "")
			defer silent.stop()
			ring = append(ring, wire.Entry{Key: hashkey.FromName(fmt.Sprint("replica-", i)), Addr: silent.l.Addr(), Capacity: 1})
		}
		counters := metrics.NewCounters()
		client := mustNode(t, Config{Name: "client", Mobile: true, Replication: replicas, RequestTimeout: time.Second,
			RetryAttempts: 3, RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond, Counters: counters}, mem)
		defer client.Close()
		client.members.apply(direct, ring...)
		start := time.Now()
		_, err := client.ResolveContext(context.Background(), hashkey.FromName("target"))
		if d := time.Since(start); err == nil || d < 6*time.Second || d > 6060*time.Millisecond {
			t.Fatalf("resolve over two silent replicas = %v after %v, want a failure within [6s, 6.06s]", err, d)
		}
		if got := counters.Get("rpc.attempts"); got != 2*3 {
			t.Errorf("rpc.attempts = %d, want each replica's 3", got)
		}
		for _, e := range ring {
			if got := client.peers.get(e.Addr, true).fails.Load(); got != 1 {
				t.Errorf("failures on record against %s = %d, want its one exchange", e.Addr, got)
			}
		}
	})
}
