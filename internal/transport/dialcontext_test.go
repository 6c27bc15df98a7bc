package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDialContextCanceledBeforeDial(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.DialContext(ctx, "srv"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestMemDialContextDeadlineBeatsBacklogWait saturates a never-accepting
// listener and dials with a context deadline much shorter than
// BacklogWait: the dial must honor the caller's deadline, and the error
// must classify as a timeout for the retry layer.
func TestMemDialContextDeadlineBeatsBacklogWait(t *testing.T) {
	m := NewMem()
	m.BacklogWait = 5 * time.Second
	if _, err := m.Listen("busy"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := m.Dial("busy"); err != nil {
			t.Fatalf("fill dial %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.DialContext(ctx, "busy")
	waited := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !IsTimeout(err) {
		t.Errorf("context deadline on dial must classify as timeout, got %v", err)
	}
	if waited >= time.Second {
		t.Errorf("dial waited %v; the context deadline (30ms) should have cut the 5s backlog wait", waited)
	}
}

// TestFaultyDialContextPropagates verifies the fault-injecting wrapper
// forwards the caller's context to the inner transport.
func TestFaultyDialContextPropagates(t *testing.T) {
	m := NewMem()
	m.BacklogWait = 5 * time.Second
	f := NewFaulty(m, FaultConfig{}).Endpoint("")
	if _, err := f.Listen("busy"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.Dial("busy"); err != nil {
			t.Fatalf("fill dial %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := f.DialContext(ctx, "busy"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited >= time.Second {
		t.Errorf("faulty dial waited %v, want ~30ms", waited)
	}
}
