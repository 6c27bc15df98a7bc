package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/wire"
)

// faultyPair dials a connected (client, server) pair between two named
// endpoints of a Faulty over Mem.
func faultyPair(t *testing.T, f *Faulty, from, to string) (Conn, Conn) {
	t.Helper()
	l, err := f.Endpoint(to).Listen(to + "-addr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err := f.Endpoint(from).Dial(to + "-addr")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestFaultyCleanPassesContract(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 1})
	exerciseTransport(t, f.Endpoint("n"), "node-a")
}

// Under per-frame jitter each direction still keeps its order: the
// contract's pipelined burst comes back in sequence.
func TestFaultyJitteredPassesContract(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 1, DelayMax: 5 * time.Millisecond})
	exerciseTransport(t, f.Endpoint("n"), "node-a")
}

// A slow link delays the frames, not their sender: five sends over a
// 200 ms link return at once, and Close lets out what is still in flight,
// in order, before the peer reads EOF.
func TestFaultyDelayHoldsFramesNotSender(t *testing.T) {
	const frames, delay = 5, 200 * time.Millisecond
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, DelayMin: delay, DelayMax: delay})
	client, server := faultyPair(t, f, "a", "b")
	start := time.Now()
	for i := 1; i <= frames; i++ {
		if err := client.Send(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("%d sends over a %v link took %v: the sender waited on the link", frames, delay, took)
	}
	start = time.Now()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("Close took %v, want it to let the held frames out at once", took)
	}
	for i := 1; i <= frames; i++ {
		m, err := server.Recv()
		if err != nil || m.Seq != uint32(i) {
			t.Fatalf("frame %d: seq %v, %v", i, m, err)
		}
	}
	if _, err := server.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the held frames: %v, want EOF", err)
	}
}

// A frame sent after the delay is switched off still waits behind the
// frames in flight ahead of it.
func TestFaultyUndelayedFrameWaitsBehindHeldOnes(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, DelayMin: 30 * time.Millisecond, DelayMax: 30 * time.Millisecond})
	client, server := faultyPair(t, f, "a", "b")
	for seq := uint32(1); seq <= 3; seq++ {
		if err := client.Send(&wire.Message{Type: wire.TPing, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	f.SetConfig(FaultConfig{Seed: 7})
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 4}); err != nil {
		t.Fatal(err)
	}
	for want := uint32(1); want <= 4; want++ {
		if m, err := server.Recv(); err != nil || m.Seq != want {
			t.Fatalf("frame %d: %v, %v", want, m, err)
		}
	}
}

func TestFaultyDropLosesFrames(t *testing.T) {
	c := metrics.NewCounters()
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, Drop: 1, Counters: c})
	client, server := faultyPair(t, f, "a", "b")
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 1}); err != nil {
		t.Fatalf("dropped send must look successful, got %v", err)
	}
	if r := recvWithin(server, 50*time.Millisecond); r != nil {
		t.Fatalf("dropped frame arrived anyway (%v, %v)", r.m, r.err)
	}
	if c.Get("fault.drop") == 0 {
		t.Fatal("drop not counted")
	}
}

func TestFaultyRefuseDial(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, RefuseDial: 1})
	l, err := f.Endpoint("b").Listen("b-addr")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := f.Endpoint("a").Dial("b-addr"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestFaultyCorruptSurfacesAsBadMagic(t *testing.T) {
	c := metrics.NewCounters()
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, Corrupt: 1, Counters: c})
	client, server := faultyPair(t, f, "a", "b")
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("corrupted frame decoded as %v, want ErrBadMagic", err)
	}
	if c.Get("fault.corrupt") == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestFaultyDuplicateDeliversTwice(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, Duplicate: 1})
	client, server := faultyPair(t, f, "a", "b")
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if m.Seq != 3 {
			t.Fatalf("copy %d has seq %d", i, m.Seq)
		}
	}
}

func TestFaultyDelayAddsLatency(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, DelayMin: 30 * time.Millisecond, DelayMax: 30 * time.Millisecond})
	client, server := faultyPair(t, f, "a", "b")
	start := time.Now()
	if err := client.Send(&wire.Message{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("frame arrived after %v, want ≥ 30ms injected delay", elapsed)
	}
}

func TestFaultyPartitionBlocksAndHeals(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7})
	l, err := f.Endpoint("b").Listen("b-addr")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	f.PartitionBoth("split", []string{"a"}, []string{"b"})
	if _, err := f.Endpoint("a").Dial("b-addr"); !errors.Is(err, ErrRefused) {
		t.Fatalf("partitioned dial: %v, want ErrRefused", err)
	}
	// Unrelated endpoints still connect.
	if c, err := f.Endpoint("c").Dial("b-addr"); err != nil {
		t.Fatalf("unpartitioned dial failed: %v", err)
	} else {
		c.Close()
	}
	f.Heal("split")
	c, err := f.Endpoint("a").Dial("b-addr")
	if err != nil {
		t.Fatalf("healed dial failed: %v", err)
	}
	c.Close()
}

func TestFaultyPartitionAsymmetric(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7})
	for _, name := range []string{"a", "b"} {
		l, err := f.Endpoint(name).Listen(name + "-addr")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
	}
	f.Partition("oneway", []string{"a"}, []string{"b"})
	if _, err := f.Endpoint("a").Dial("b-addr"); !errors.Is(err, ErrRefused) {
		t.Fatalf("a→b should be blocked, got %v", err)
	}
	c, err := f.Endpoint("b").Dial("a-addr")
	if err != nil {
		t.Fatalf("b→a should pass, got %v", err)
	}
	c.Close()
}

func TestFaultyPartitionDropsEstablishedClientFrames(t *testing.T) {
	c := metrics.NewCounters()
	f := NewFaulty(NewMem(), FaultConfig{Seed: 7, Counters: c})
	client, server := faultyPair(t, f, "a", "b")
	f.Partition("split", []string{"a"}, []string{"b"})
	if err := client.Send(&wire.Message{Type: wire.TPing}); err != nil {
		t.Fatalf("black-holed send must look successful, got %v", err)
	}
	if r := recvWithin(server, 50*time.Millisecond); r != nil {
		t.Fatalf("frame crossed the partition (%v, %v)", r.m, r.err)
	}
	if c.Get("fault.partition_drop") == 0 {
		t.Fatal("partition drop not counted")
	}
}

// TestFaultySeededDeterminism: the same seed and the same per-link frame
// order must inject the same faults.
func TestFaultySeededDeterminism(t *testing.T) {
	run := func() uint64 {
		c := metrics.NewCounters()
		f := NewFaulty(NewMem(), FaultConfig{Seed: 99, Drop: 0.5, Counters: c})
		client, _ := faultyPair(t, f, "a", "b")
		for i := 0; i < 200; i++ {
			if err := client.Send(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Get("fault.drop")
	}
	first, second := run(), run()
	if first == 0 || first == 200 {
		t.Fatalf("drop rate degenerate: %d/200", first)
	}
	if first != second {
		t.Fatalf("same seed diverged: %d vs %d drops", first, second)
	}
}

func TestFaultySetConfigTogglesChaos(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 5})
	client, server := faultyPair(t, f, "a", "b")
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatalf("clean phase: %v", err)
	}
	f.SetConfig(FaultConfig{Seed: 5, Drop: 1})
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if r := recvWithin(server, 50*time.Millisecond); r != nil {
		t.Fatalf("chaos phase delivered anyway (%v, %v)", r.m, r.err)
	}
}

func TestFaultyLatencyHookPerLink(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{
		Seed: 7,
		Latency: func(from, to string) time.Duration {
			if from == "a" && to == "b" {
				return 40 * time.Millisecond
			}
			return 0 // accepted side (to == "") and every other link: free
		},
	})
	client, server := faultyPair(t, f, "a", "b")
	start := time.Now()
	if err := client.Send(&wire.Message{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("forward frame arrived after %v, want ≥ 40ms injected latency", elapsed)
	}
	// The response direction (accepted side, to == "") pays nothing.
	start = time.Now()
	if err := server.Send(&wire.Message{Type: wire.TPong}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("response took %v, want no injected latency", elapsed)
	}
}
