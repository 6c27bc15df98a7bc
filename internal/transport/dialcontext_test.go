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

// TestMemBacklogFullDistinctSentinel saturates a never-accepting
// listener's 64-slot backlog: the next dial waits, as a TCP dial does,
// until its ctx ends, and fails as a timeout the retry layer classifies
// as TCP's — distinct from ErrRefused, which would say nobody listens.
func TestMemBacklogFullDistinctSentinel(t *testing.T) {
	m := NewMem()
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
	if !errors.Is(err, context.DeadlineExceeded) || !IsTimeout(err) {
		t.Fatalf("err = %v, want a timeout wrapping context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v: a full backlog is not a refusal", err)
	}
	if waited < 30*time.Millisecond || waited >= time.Second {
		t.Errorf("dial returned after %v, want at its 30ms deadline", waited)
	}
}

// TestFaultyDialContextPropagates verifies the fault-injecting wrapper
// forwards the caller's context to the inner transport.
func TestFaultyDialContextPropagates(t *testing.T) {
	m := NewMem()
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
