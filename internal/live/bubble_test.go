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
