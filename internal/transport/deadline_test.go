package transport

// Tests of Conn's deadlines on every transport: an expired read or write
// deadline ends the wait with an error IsTimeout reports, a read the
// deadline cuts costs the stream nothing — the next Recv completes the
// frame it cut — and neither does a write it cuts: the next write resumes
// the stream.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bristle/internal/wire"
)

// connPair returns the dialed and the accepted end of one conn over tr.
func connPair(t *testing.T, tr Transport, addr string) (client, server Conn) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if client, err = tr.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// deadlineTransports are the transports whose conns honour deadlines.
func deadlineTransports() []struct {
	name string
	tr   Transport
	addr string
} {
	return []struct {
		name string
		tr   Transport
		addr string
	}{
		{"tcp", &TCP{}, "127.0.0.1:0"},
		{"mem", NewMem(), ""},
		{"faulty", NewFaulty(NewMem(), FaultConfig{}).Endpoint("a"), ""},
	}
}

func TestConnReadDeadline(t *testing.T) {
	for _, tc := range deadlineTransports() {
		t.Run(tc.name, func(t *testing.T) {
			client, server := connPair(t, tc.tr, tc.addr)
			const wait = 30 * time.Millisecond
			start := time.Now()
			client.SetReadDeadline(start.Add(wait))
			if _, err := client.Recv(); !IsTimeout(err) || time.Since(start) < wait {
				t.Fatalf("Recv past its deadline = %v after %v, want a timeout after %v", err, time.Since(start), wait)
			}
			// The conn survives: a later deadline, and a frame, end the next
			// Recv with the frame.
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := server.Send(&wire.Message{Type: wire.TPing, Seq: 7}); err != nil {
				t.Fatal(err)
			}
			if m, err := client.Recv(); err != nil || m.Seq != 7 {
				t.Fatalf("Recv after a timeout = (%v, %v), want the frame", m, err)
			}
			// A deadline moved into the past wakes a Recv already waiting.
			client.SetReadDeadline(time.Time{})
			done := make(chan error, 1)
			go func() { _, err := client.Recv(); done <- err }()
			time.Sleep(10 * time.Millisecond)
			client.SetReadDeadline(time.Unix(1, 0))
			select {
			case err := <-done:
				if !IsTimeout(err) {
					t.Fatalf("a waiting Recv = %v once its deadline passed, want a timeout", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a waiting Recv outlived a deadline moved into the past")
			}
		})
	}
}

func TestConnWriteDeadline(t *testing.T) {
	for _, tc := range deadlineTransports() {
		t.Run(tc.name, func(t *testing.T) {
			client, server := connPair(t, tc.tr, tc.addr)
			// A deadline already past when the write starts sends nothing,
			// and the frames stay queued for a write under a later one.
			client.SetWriteDeadline(time.Unix(1, 0))
			err := client.Send(&wire.Message{Type: wire.TPing, Seq: 1})
			if !IsTimeout(err) {
				t.Fatalf("Send past its deadline = %v, want a timeout", err)
			}
			client.SetWriteDeadline(time.Time{})
			if err := client.Flush(); err != nil {
				t.Fatalf("Flush under no deadline: %v", err)
			}
			if m, err := server.Recv(); err != nil || m.Seq != 1 {
				t.Fatalf("the frame the timed-out Send queued = (%v, %v)", m, err)
			}
			// Against a peer that stops reading, a write blocks until its
			// deadline.
			const wait = 50 * time.Millisecond
			big := fullFrame(t)
			big.Entries = big.Entries[:len(big.Entries)/2]
			start := time.Now()
			client.SetWriteDeadline(start.Add(wait))
			sent := 0
			for err = nil; err == nil; err = client.Send(big) {
				if time.Since(start) > 10*time.Second {
					t.Fatal("writes to a peer that reads nothing never blocked")
				}
				big.Seq++
				sent++
			}
			if !IsTimeout(err) || time.Since(start) < wait {
				t.Fatalf("Send to a peer that reads nothing = %v after %v, want a timeout after %v", err, time.Since(start), wait)
			}
			// The cut write lost nothing: once the peer reads again, a Flush
			// resumes the frame it cut, and every frame arrives whole.
			got := make(chan error, 1)
			go func() {
				for seq := uint32(1); seq <= uint32(sent); seq++ {
					m, err := server.Recv()
					if err == nil && (m.Seq != seq || len(m.Entries) != len(big.Entries)) {
						err = fmt.Errorf("frame %d arrived as seq %d with %d entries", seq, m.Seq, len(m.Entries))
					}
					if err != nil {
						got <- err
						return
					}
				}
				got <- nil
			}()
			client.SetWriteDeadline(time.Time{})
			if err := client.Flush(); err != nil {
				t.Fatalf("Flush resuming a cut write: %v", err)
			}
			if err := <-got; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecvResumesAFrameTheDeadlineCut: half a frame arrives, the read
// deadline passes, the other half arrives, and the next Recv returns the
// whole frame.
func TestRecvResumesAFrameTheDeadlineCut(t *testing.T) {
	frame, err := wire.Encode(&wire.Message{Type: wire.TDiscoverResp, Seq: 9, Found: true, Self: wire.Entry{Key: 3, Addr: "192.0.2.1:9000", Epoch: 2}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]func(t *testing.T) (Conn, func([]byte)){
		"tcp": func(t *testing.T) (Conn, func([]byte)) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			c, err := (&TCP{}).Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close(); raw.Close() })
			return c, func(b []byte) { raw.Write(b) }
		},
		"mem": func(t *testing.T) (Conn, func([]byte)) {
			a2b, b2a := newPipe(), newPipe()
			c, raw := NewConn(&memEnd{in: b2a, out: a2b}), &memEnd{in: a2b, out: b2a}
			t.Cleanup(func() { c.Close(); raw.Close() })
			return c, func(b []byte) { raw.Write(b) }
		},
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			c, write := pair(t)
			for _, cut := range []int{3, len(frame) / 2} { // in the header, in the payload
				write(frame[:cut])
				c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
				if _, err := c.Recv(); !IsTimeout(err) {
					t.Fatalf("Recv of %d bytes of a frame = %v, want a timeout", cut, err)
				}
				write(frame[cut:])
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				m, err := c.Recv()
				if err != nil || m.Seq != 9 || !m.Found || m.Self.Addr != "192.0.2.1:9000" || m.Self.Epoch != 2 {
					t.Fatalf("Recv of the rest of a frame cut after %d bytes = (%+v, %v), want the whole frame", cut, m, err)
				}
			}
		})
	}
}
