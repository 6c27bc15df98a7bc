package transport

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// exerciseTransport runs the shared contract tests against any Transport.
func exerciseTransport(t *testing.T, tr Transport, addr string) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return // client closed
			}
			m.Type = wire.TPong
			if err := conn.Send(m); err != nil {
				serverErr = err
				return
			}
		}
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Send(&wire.Message{Type: wire.TPing, Seq: uint32(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Type != wire.TPong || m.Seq != uint32(i) {
			t.Fatalf("echo %d mismatch: %+v", i, m)
		}
	}
	// A pipelined burst: queued frames leave in one flush, and the replies
	// come back in order.
	const burst = 32
	for i := 0; i < burst; i++ {
		if _, err := c.Queue(&wire.Message{Type: wire.TPing, Seq: uint32(100 + i)}); err != nil {
			t.Fatalf("Queue %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < burst; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("burst Recv %d: %v", i, err)
		}
		if m.Type != wire.TPong || m.Seq != uint32(100+i) {
			t.Fatalf("burst echo %d out of order: %+v", i, m)
		}
	}
	c.Close()
	wg.Wait()
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
}

func TestMemTransportContract(t *testing.T) {
	exerciseTransport(t, NewMem(), "node-a")
}

func TestTCPTransportContract(t *testing.T) {
	exerciseTransport(t, &TCP{}, "127.0.0.1:0")
}

func TestMemDialUnknownRefused(t *testing.T) {
	m := NewMem()
	if _, err := m.Dial("nowhere"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestMemAddressReuseRejected(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("dup"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// After close the address is free again.
	if _, err := m.Listen("dup"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestMemAutoAddressesUnique(t *testing.T) {
	m := NewMem()
	a, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("auto addresses collide: %s", a.Addr())
	}
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("x")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Accept after close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on close")
	}
}

func TestMemDialAfterListenerClose(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("gone")
	l.Close()
	if _, err := m.Dial("gone"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

func TestMemConnCloseUnblocksPeerRecv(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("y")
	go func() {
		c, err := m.Dial("y")
		if err != nil {
			return
		}
		c.Close()
	}()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("Recv on peer-closed conn: %v, want EOF", err)
	}
}

func TestMemPendingMessagesDrainBeforeEOF(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("z")
	client, err := m.Dial("z")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(&wire.Message{Type: wire.TPing, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	msg, err := server.Recv()
	if err != nil {
		t.Fatalf("queued message lost: %v", err)
	}
	if msg.Seq != 7 {
		t.Fatalf("wrong message drained: %+v", msg)
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("after drain: %v, want EOF", err)
	}
}

func TestMemSendAfterCloseFails(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("w")
	client, _ := m.Dial("w")
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := client.Send(&wire.Message{Type: wire.TPing}); err == nil {
		t.Fatal("send on closed conn succeeded")
	}
}

// TestTCPConcurrentSenders pins Conn's write contract under -race: eight
// goroutines mix immediate sends, queued sends and flushes on one conn;
// every frame must decode intact (no interleaving) and each goroutine's
// frames must arrive in the order it issued them.
func TestTCPConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 60
	tr := &TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		frames []*wire.Message
		err    error
	}
	received := make(chan result, 1)
	go func() {
		var res result
		defer func() { received <- res }()
		conn, err := l.Accept()
		if err != nil {
			res.err = err
			return
		}
		defer conn.Close()
		for len(res.frames) < senders*perSender {
			m, err := conn.Recv()
			if err != nil {
				res.err = err
				return
			}
			res.frames = append(res.frames, m)
		}
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				// Key carries the sender, Seq its position; the address
				// gives every frame a different length.
				m := &wire.Message{Type: wire.TPublishBatch, Key: hashkey.Key(g), Seq: uint32(i)}
				m.Self.Addr = strings.Repeat("x", (g*perSender+i)%97)
				var err error
				switch i % 3 {
				case 0:
					err = c.Send(m)
				case 1:
					_, err = c.Queue(m)
				default:
					if _, err = c.Queue(m); err == nil {
						err = c.Flush()
					}
				}
				if err != nil {
					t.Errorf("sender %d frame %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	res := <-received
	if res.err != nil {
		t.Fatalf("after %d/%d frames: %v", len(res.frames), senders*perSender, res.err)
	}
	next := make([]uint32, senders)
	for _, m := range res.frames {
		g := int(m.Key)
		if m.Type != wire.TPublishBatch || g >= senders || m.Seq != next[g] ||
			m.Self.Addr != strings.Repeat("x", (g*perSender+int(m.Seq))%97) {
			t.Fatalf("frame %v key=%d seq=%d addr=%q: mangled or out of order (sender expects seq %d)",
				m.Type, m.Key, m.Seq, m.Self.Addr, next[g%senders])
		}
		next[g]++
	}
}

func TestTCPDialRefused(t *testing.T) {
	tr := &TCP{}
	if _, err := tr.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestMemDialUnknownIsErrRefused(t *testing.T) {
	m := NewMem()
	if _, err := m.Dial("nowhere"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

// TestMemDialWaitsForBacklogDrain fills the backlog, then frees one slot
// while a dial is waiting: the dial must succeed instead of failing fast.
func TestMemDialWaitsForBacklogDrain(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("busy")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := m.Dial("busy"); err != nil {
			t.Fatalf("fill dial %d: %v", i, err)
		}
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		l.Accept() // frees one backlog slot
	}()
	start := time.Now()
	c, err := m.Dial("busy")
	if err != nil {
		t.Fatalf("dial during drain: %v", err)
	}
	c.Close()
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("dial returned before the backlog had room")
	}
}

// recvResult is what one Recv returned.
type recvResult struct {
	m   *wire.Message
	err error
}

// recvWithin runs one Recv on c and waits at most d for it, returning nil
// when nothing arrived in time. That Recv stays parked until c closes, so
// it is the last one a test makes on c.
func recvWithin(c Conn, d time.Duration) *recvResult {
	done := make(chan recvResult, 1)
	go func() {
		m, err := c.Recv()
		done <- recvResult{m, err}
	}()
	select {
	case r := <-done:
		return &r
	case <-time.After(d):
		return nil
	}
}

// memPair returns the dialed and the accepted end of one Mem conn.
func memPair(t *testing.T) (client, server Conn) {
	t.Helper()
	m := NewMem()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if client, err = m.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// fullFrame returns a message whose frame is one byte longer than a Mem
// pipe holds, with a payload still within wire.MaxFrame.
func fullFrame(t *testing.T) *wire.Message {
	t.Helper()
	const n = 16
	m := &wire.Message{Type: wire.TPublishBatch}
	size := func() int {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}
	m.Entries = make([]wire.Entry, n)
	addrs := wire.MaxFrame + 1 - size() // the address bytes still to add
	for i := range m.Entries {
		l := addrs / n
		if i == n-1 {
			l += addrs % n
		}
		m.Entries[i] = wire.Entry{Key: hashkey.Key(i), Addr: strings.Repeat(string(rune('a'+i)), l)}
	}
	if got := size(); got != wire.MaxFrame+1 {
		t.Fatalf("frame is %d bytes, want %d", got, wire.MaxFrame+1)
	}
	return m
}

// A frame larger than a Mem pipe crosses to a reader that starts late: the
// writer waits at the bound, then completes once the reader drains it.
func TestMemPipeHoldsAWriterAtTheBound(t *testing.T) {
	client, server := memPair(t)
	m := fullFrame(t)
	sent := make(chan error, 1)
	go func() { sent <- client.Send(m) }()
	select {
	case err := <-sent:
		t.Fatalf("a frame past the pipe's bound was taken with no reader (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if len(got.Entries) != len(m.Entries) {
		t.Fatalf("got %d entries, want %d", len(got.Entries), len(m.Entries))
	}
	for i, e := range got.Entries {
		if e.Key != m.Entries[i].Key || e.Addr != m.Entries[i].Addr {
			t.Fatalf("entry %d mangled in the pipe", i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// A writer parked on a full pipe fails when either end closes, instead of
// waiting for a reader that is gone.
func TestMemParkedWriterFailsOnClose(t *testing.T) {
	for _, closer := range []string{"writer", "reader"} {
		t.Run(closer, func(t *testing.T) {
			client, server := memPair(t)
			m := fullFrame(t)
			sent := make(chan error, 1)
			go func() { sent <- client.Send(m) }()
			select {
			case err := <-sent:
				t.Fatalf("Send returned before the pipe filled: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			if closer == "writer" {
				client.Close()
			} else {
				server.Close()
			}
			select {
			case err := <-sent:
				if err == nil {
					t.Fatal("parked Send succeeded after its conn closed")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("parked Send still blocked after the close")
			}
		})
	}
}

// Closing a listener closes the conns dialed into its backlog and never
// accepted, as a TCP listener resets them: their dialers read EOF rather
// than wait for an accept that will not come.
func TestMemListenerCloseClosesItsBacklog(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	r := recvWithin(c, time.Second)
	if r == nil {
		t.Fatal("Recv on a conn left in a closed listener's backlog still blocked after 1s")
	}
	if r.err != io.EOF {
		t.Fatalf("Recv = %v, %v; want EOF", r.m, r.err)
	}
}
