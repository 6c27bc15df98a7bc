package transport

// Tests for the batching surface of Conn: Queue, Flush, a Recv that
// writes nothing, the sticky write error, and Faulty's per-frame fault
// accounting over it.

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/wire"
)

// countingRW counts the writes that reach the stream under a conn.
type countingRW struct {
	io.ReadWriteCloser
	writes atomic.Int64
}

func (c *countingRW) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ReadWriteCloser.Write(p)
}

// The stream's deadlines pass through: a socket and a Mem pipe have them.
func (c *countingRW) SetReadDeadline(t time.Time) error {
	return c.ReadWriteCloser.(deadliner).SetReadDeadline(t)
}

func (c *countingRW) SetWriteDeadline(t time.Time) error {
	return c.ReadWriteCloser.(deadliner).SetWriteDeadline(t)
}

// tcpCountedPair returns a framed client over a write-counting socket and
// the accepted server side of the same loopback connection.
func tcpCountedPair(t *testing.T) (Conn, *countingRW, Conn) {
	t.Helper()
	l, err := (&TCP{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingRW{ReadWriteCloser: raw}
	client := NewConn(counted)
	t.Cleanup(func() { client.Close() })
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return client, counted, server
}

// memCountedPair is tcpCountedPair over Mem's pipes.
func memCountedPair(t *testing.T) (Conn, *countingRW, Conn) {
	a2b, b2a := newPipe(), newPipe()
	counted := &countingRW{ReadWriteCloser: &memEnd{in: b2a, out: a2b}}
	client, server := NewConn(counted), NewConn(&memEnd{in: a2b, out: b2a})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, counted, server
}

func TestTCPQueueHoldsUntilFlush(t *testing.T) { queueHoldsUntilFlush(t, tcpCountedPair) }
func TestMemQueueHoldsUntilFlush(t *testing.T) { queueHoldsUntilFlush(t, memCountedPair) }

func queueHoldsUntilFlush(t *testing.T, pair func(*testing.T) (Conn, *countingRW, Conn)) {
	client, counted, server := pair(t)
	for i := 1; i <= 5; i++ {
		if err := client.Queue(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
			t.Fatalf("Queue %d: %v", i, err)
		}
	}
	if got := counted.writes.Load(); got != 0 {
		t.Fatalf("queued frames left before any flush: %d writes", got)
	}
	// Send goes out behind what was queued, all in one write.
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 6}); err != nil {
		t.Fatal(err)
	}
	for want := uint32(1); want <= 6; want++ {
		m, err := server.Recv()
		if err != nil || m.Seq != want {
			t.Fatalf("frame %d: got %v, %v", want, m, err)
		}
	}
	if got := counted.writes.Load(); got != 1 {
		t.Errorf("6 frames took %d writes, want 1", got)
	}
}

// faultyCountedPair is memCountedPair with Faulty's conn, under a profile
// that injects nothing, on the client.
func faultyCountedPair(t *testing.T) (Conn, *countingRW, Conn) {
	client, counted, server := memCountedPair(t)
	f := NewFaulty(NewMem(), FaultConfig{})
	return &faultyConn{f: f, from: "a", to: "b", link: f.linkFor("a", "b"), inner: client}, counted, server
}

// A Recv only reads: one its read deadline cuts leaves the frames queued
// before it unwritten, and the Flush after it sends them in one write.
func TestRecvLeavesQueuedFramesUnwritten(t *testing.T) {
	for name, pair := range map[string]func(*testing.T) (Conn, *countingRW, Conn){
		"tcp": tcpCountedPair, "mem": memCountedPair, "faulty": faultyCountedPair,
	} {
		t.Run(name, func(t *testing.T) {
			client, counted, server := pair(t)
			for i := 1; i <= 3; i++ {
				if err := client.Queue(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
					t.Fatal(err)
				}
			}
			client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if _, err := client.Recv(); !IsTimeout(err) {
				t.Fatalf("Recv with nothing coming = %v, want a timeout", err)
			}
			if got := counted.writes.Load(); got != 0 {
				t.Fatalf("a Recv wrote the queued frames: %d writes", got)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			for want := uint32(1); want <= 3; want++ {
				m, err := server.Recv()
				if err != nil || m.Seq != want {
					t.Fatalf("frame %d: got %v, %v", want, m, err)
				}
			}
			if got := counted.writes.Load(); got != 1 {
				t.Errorf("3 queued frames took %d writes, want 1", got)
			}
		})
	}
}

func TestTCPWriteErrorIsSticky(t *testing.T) { writeErrorIsSticky(t, tcpCountedPair) }
func TestMemWriteErrorIsSticky(t *testing.T) { writeErrorIsSticky(t, memCountedPair) }

func writeErrorIsSticky(t *testing.T, pair func(*testing.T) (Conn, *countingRW, Conn)) {
	client, _, _ := pair(t)
	// An encode failure queues nothing and leaves the conn usable.
	tooMany := &wire.Message{Type: wire.TPublishBatch, Entries: make([]wire.Entry, 70000)}
	if err := client.Queue(tooMany); !errors.Is(err, wire.ErrEncode) {
		t.Fatalf("oversized frame: err = %v, want ErrEncode", err)
	}
	if err := client.Send(&wire.Message{Type: wire.TPing}); err != nil {
		t.Fatalf("send after an encode failure: %v", err)
	}
	client.Close()
	first := client.Send(&wire.Message{Type: wire.TPing})
	if first == nil {
		t.Fatal("send on a closed stream succeeded")
	}
	if err := client.Queue(&wire.Message{Type: wire.TPing}); err != first {
		t.Errorf("Queue after a failed write: %v, want the first error %v", err, first)
	}
	if err := client.Flush(); err != first {
		t.Errorf("Flush after a failed write: %v, want the first error %v", err, first)
	}
}

// TestFaultyQueueCountsPerFrame runs every frame fault through Queue over
// a real socket: each is decided and counted once per frame, exactly as on
// Send, and survivors still wait for the flush.
func TestFaultyQueueCountsPerFrame(t *testing.T) {
	const frames = 20
	for _, tc := range []struct {
		name    string
		cfg     FaultConfig
		counter string
		arrive  int  // frames the receiver decodes after the flush
		poison  bool // the first arrival is a corrupted frame
	}{
		{"drop", FaultConfig{Drop: 1}, "fault.drop", 0, false},
		{"duplicate", FaultConfig{Duplicate: 1}, "fault.duplicate", 2 * frames, false},
		{"corrupt", FaultConfig{Corrupt: 1}, "fault.corrupt", 0, true},
		{"delay", FaultConfig{DelayMin: time.Millisecond, DelayMax: time.Millisecond}, "fault.delay", frames, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counters := metrics.NewCounters()
			tc.cfg.Seed, tc.cfg.Counters = 11, counters
			f := NewFaulty(&TCP{}, tc.cfg)
			l, err := f.Endpoint("b").Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			client, err := f.Endpoint("a").Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()

			for i := 0; i < frames; i++ {
				if err := client.Queue(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if got := counters.Get(tc.counter); got != frames {
				t.Errorf("%s = %d after %d queued frames, want one per frame", tc.counter, got, frames)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			if tc.poison {
				if _, err := server.Recv(); !errors.Is(err, wire.ErrBadMagic) {
					t.Fatalf("corrupted frame: err = %v, want ErrBadMagic", err)
				}
				return
			}
			for i := 0; i < tc.arrive; i++ {
				if _, err := server.Recv(); err != nil {
					t.Fatalf("frame %d/%d: %v", i, tc.arrive, err)
				}
			}
			if r := recvWithin(server, 50*time.Millisecond); r != nil {
				t.Fatalf("more than %d frames arrived: %v, %v", tc.arrive, r.m, r.err)
			}
		})
	}
}
