package transport

import (
	"testing"
	"time"

	"bristle/internal/wire"
)

// TestConnPeerClosed: PeerClosed looks without waiting and without
// reading. An open conn reports false, with or without a frame waiting,
// and the frame stays whole for Recv; a closed peer reports true, also
// behind a late frame it sent before its close.
func TestConnPeerClosed(t *testing.T) {
	for _, tc := range deadlineTransports() {
		t.Run(tc.name, func(t *testing.T) {
			client, server := connPair(t, tc.tr, tc.addr)
			if client.PeerClosed() {
				t.Fatal("an idle open conn reports its peer closed")
			}
			frame := &wire.Message{Type: wire.TDiscoverResp, Seq: 7, Key: 42, Found: true}
			if err := server.Send(frame); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // the frame arrives
			if client.PeerClosed() {
				t.Fatal("an open conn with a frame waiting reports its peer closed")
			}
			if m, err := client.Recv(); err != nil || m.Seq != 7 || m.Key != 42 {
				t.Fatalf("Recv after PeerClosed = %+v, %v, want the frame whole", m, err)
			}

			// A late frame, then the close: the close shows behind it.
			if err := server.Send(frame); err != nil {
				t.Fatal(err)
			}
			server.Close()
			waitUntil(t, "the close to show", client.PeerClosed)
			if m, err := client.Recv(); err != nil || m.Seq != 7 {
				t.Fatalf("Recv of the frame sent before the close = %+v, %v, want it whole", m, err)
			}
			if _, err := client.Recv(); err == nil {
				t.Fatal("Recv after the late frame succeeded, want the close")
			}
			if !client.PeerClosed() {
				t.Fatal("a closed peer reports open once its frames are read")
			}
		})
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecvAfterBrokenWrite: a reply that fails because the peer has
// closed fails no later Recv: the frames the peer sent before its close
// are still read, then its close.
func TestRecvAfterBrokenWrite(t *testing.T) {
	for _, tc := range deadlineTransports()[1:] { // Mem and Faulty: a write to a closed pipe fails at once
		t.Run(tc.name, func(t *testing.T) {
			client, server := connPair(t, tc.tr, tc.addr)
			for seq := uint32(1); seq <= 2; seq++ {
				if err := client.Send(&wire.Message{Type: wire.TUpdate, Seq: seq}); err != nil {
					t.Fatal(err)
				}
			}
			client.Close()
			if err := server.Send(&wire.Message{Type: wire.TPong}); err == nil {
				t.Fatal("a write to a closed peer succeeded")
			}
			for seq := uint32(1); seq <= 2; seq++ {
				if m, err := server.Recv(); err != nil || m.Seq != seq {
					t.Fatalf("Recv %d after the failed write = %+v, %v, want the frame", seq, m, err)
				}
			}
			if _, err := server.Recv(); err == nil {
				t.Fatal("Recv after the peer's frames succeeded, want its close")
			}
		})
	}
}
