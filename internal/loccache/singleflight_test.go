package loccache

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/hashkey"
)

// inflight counts the flights g has in the air.
func inflight(g *Group) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

func TestDoCoalescesConcurrentCallers(t *testing.T) {
	var g Group
	k := hashkey.FromName("k")
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (string, error) {
		calls.Add(1)
		<-gate
		return "addr", nil
	}

	const waiters = 16
	var wg sync.WaitGroup
	var arrived atomic.Int32
	sharedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			addr, shared, err := g.Do(context.Background(), k, fn)
			if err != nil || addr != "addr" {
				t.Errorf("Do: %q %v", addr, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// The flight cannot complete while the gate is shut, so every caller
	// that reaches Do before the gate opens joins the same flight. Wait
	// for all of them to be at Do's doorstep (plus a scheduling grace
	// period) before releasing it.
	for arrived.Load() != waiters {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != waiters-1 {
		t.Fatalf("%d callers saw shared, want %d", got, waiters-1)
	}
}

func TestDoWaiterCancellationLeavesFlightRunning(t *testing.T) {
	var g Group
	k := hashkey.FromName("k")
	gate := make(chan struct{})
	started := make(chan struct{})
	fn := func() (string, error) {
		close(started)
		<-gate
		return "late", nil
	}

	go g.Do(context.Background(), k, fn)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.Do(ctx, k, fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}

	// The flight survived the waiter's departure: a patient waiter still
	// gets its result. (The waiter's fallback fn returns the same value,
	// so the assertion holds even if it races past the flight's finish.)
	done := make(chan string, 1)
	go func() {
		addr, _, _ := g.Do(context.Background(), k, func() (string, error) { return "late", nil })
		done <- addr
	}()
	close(gate)
	if addr := <-done; addr != "late" {
		t.Fatalf("patient waiter got %q, want late", addr)
	}
}

func TestSequentialDoDoesNotShare(t *testing.T) {
	var g Group
	k := hashkey.FromName("k")
	for i := 0; i < 3; i++ {
		addr, shared, err := g.Do(context.Background(), k, func() (string, error) { return "a", nil })
		if err != nil || addr != "a" || shared {
			t.Fatalf("iteration %d: %q shared=%v err=%v", i, addr, shared, err)
		}
	}
}

func TestDoPropagatesError(t *testing.T) {
	var g Group
	sentinel := errors.New("boom")
	_, _, err := g.Do(context.Background(), hashkey.FromName("k"), func() (string, error) { return "", sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// goid reads the calling goroutine's id off its stack header.
func goid() string {
	buf := make([]byte, 64)
	fields := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	return fields[1] // "goroutine N [running]:"
}

// TestLeaderFliesOnCallerGoroutine: a lone miss costs no goroutine — the
// caller that starts the flight runs its body.
func TestLeaderFliesOnCallerGoroutine(t *testing.T) {
	var g Group
	caller, flier := goid(), ""
	addr, shared, err := g.Do(context.Background(), hashkey.FromName("k"), func() (string, error) {
		flier = goid()
		return "a", nil
	})
	if err != nil || addr != "a" || shared {
		t.Fatalf("Do = %q shared=%v err=%v", addr, shared, err)
	}
	if flier != caller {
		t.Fatalf("flight ran on goroutine %s, its caller is %s", flier, caller)
	}
	if inflight(&g) != 0 {
		t.Fatalf("%d flights left behind", inflight(&g))
	}
}

// TestImpatientLeaderDetachesFlight: the leader's deadline ends its own
// wait, not the flight — the follower that joined keeps waiting on the
// same flight, whose body runs a second time on a goroutine of its own.
func TestImpatientLeaderDetachesFlight(t *testing.T) {
	var g Group
	k := hashkey.FromName("k")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	gate := make(chan struct{})
	var runs atomic.Int32
	body := func() (string, error) {
		if runs.Add(1) == 1 {
			select {
			case <-gate:
				return "addr", nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		<-gate // the second run is nobody's wait: it has its own lifetime
		return "addr", nil
	}

	type result struct {
		addr   string
		shared bool
		err    error
	}
	leader, follower := make(chan result, 1), make(chan result, 1)
	go func() {
		addr, shared, err := g.Do(ctx, k, body)
		leader <- result{addr, shared, err}
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		addr, shared, err := g.Do(context.Background(), k, body)
		follower <- result{addr, shared, err}
	}()

	if r := <-leader; !errors.Is(r.err, context.DeadlineExceeded) || r.shared {
		t.Fatalf("leader = %+v, want its own DeadlineExceeded", r)
	}
	if n := inflight(&g); n != 1 {
		t.Fatalf("Inflight = %d after the leader left, want the flight still up", n)
	}
	select {
	case r := <-follower:
		t.Fatalf("follower returned %+v before the flight landed", r)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	r := <-follower
	if r.err != nil || r.addr != "addr" {
		t.Fatalf("follower = %+v, want the answer", r)
	}
	// The follower joined the leader's flight unless the leader had already
	// given up by then; either way one body ran to the end, after exactly
	// one that was cut short.
	if got := runs.Load(); got != 2 {
		t.Fatalf("body ran %d times, want 2", got)
	}
	for inflight(&g) != 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingFlightLandsForFollowers: a body that panics takes its own
// caller down, not the followers and not the key.
func TestPanickingFlightLandsForFollowers(t *testing.T) {
	var g Group
	k := hashkey.FromName("k")
	follower := make(chan error, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the leader's caller")
			}
		}()
		_, _, _ = g.Do(context.Background(), k, func() (string, error) {
			atDo := make(chan struct{})
			go func() {
				close(atDo)
				_, _, err := g.Do(context.Background(), k, func() (string, error) { return "", nil })
				follower <- err
			}()
			// As in TestDoCoalescesConcurrentCallers: the follower is at Do's
			// doorstep, plus a scheduling grace period for it to join.
			<-atDo
			time.Sleep(50 * time.Millisecond)
			panic("boom")
		})
	}()
	if err := <-follower; !errors.Is(err, errAborted) {
		t.Fatalf("follower err = %v, want errAborted", err)
	}
	addr, shared, err := g.Do(context.Background(), k, func() (string, error) { return "again", nil })
	if err != nil || addr != "again" || shared {
		t.Fatalf("key poisoned after a panicking flight: %q shared=%v err=%v", addr, shared, err)
	}
}
