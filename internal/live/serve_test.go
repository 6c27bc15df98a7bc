package live

// Tests for serveConn over real sockets: every frame is answered on the
// reader goroutine with the replies coalesced into one write per burst;
// neither a TUpdate's forwarding nor a reply over a slow link delays the
// rest.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// countingTCP is transport.TCP whose accepted sockets count their writes.
type countingTCP struct {
	transport.TCP
	writes atomic.Int64
}

func (ct *countingTCP) Listen(addr string) (transport.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, ct: ct}, nil
}

type countingListener struct {
	net.Listener
	ct *countingTCP
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return transport.NewConn(&countingSock{Conn: c, writes: &l.ct.writes}), nil
}

func (l *countingListener) Addr() string { return l.Listener.Addr().String() }

type countingSock struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingSock) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawPeer is a bare socket speaking the wire format, so a test decides
// exactly which bytes share a write.
type rawPeer struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

// serveFixture starts a node over tr holding n published records and dials
// it raw. The node's keys are serveKey(0..n-1).
func serveFixture(t *testing.T, cfg Config, tr transport.Transport, n int) (*Node, *rawPeer) {
	t.Helper()
	server := mustNode(t, cfg, tr)
	if err := server.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	for i := 0; i < n; i++ {
		server.store.apply(wire.Entry{Key: serveKey(i), Addr: serveAddr(i), Epoch: 1}, serveKey(i), monotime())
	}
	c, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return server, &rawPeer{t: t, c: c, r: bufio.NewReader(c)}
}

func serveKey(i int) hashkey.Key { return hashkey.FromName(fmt.Sprintf("serve-key-%d", i)) }
func serveAddr(i int) string     { return fmt.Sprintf("192.0.2.%d:9000", i) }

// write puts the frames, and then tail verbatim, on the socket in one write.
func (p *rawPeer) write(tail []byte, frames ...*wire.Message) {
	p.t.Helper()
	var buf []byte
	for _, m := range frames {
		var err error
		if buf, err = wire.AppendFrame(buf, m); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.c.Write(append(buf, tail...)); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawPeer) read() *wire.Message {
	p.t.Helper()
	m, err := wire.Decode(p.r)
	if err != nil {
		p.t.Fatalf("reading reply: %v", err)
	}
	return m
}

// expectDiscovered reads one reply and checks it answers discover i.
func (p *rawPeer) expectDiscovered(i int) {
	p.t.Helper()
	m := p.read()
	if m.Type != wire.TDiscoverResp || m.Seq != uint32(i+1) || m.Key != serveKey(i) || !m.Found || m.Self.Addr != serveAddr(i) {
		p.t.Fatalf("reply %d: %v seq=%d key=%v found=%v addr=%q", i, m.Type, m.Seq, m.Key, m.Found, m.Self.Addr)
	}
}

func discover(i int) *wire.Message {
	return &wire.Message{Type: wire.TDiscover, Seq: uint32(i + 1), Key: serveKey(i)}
}

// A burst of pipelined discovers is answered in request order and its
// replies share writes: the syscall is paid per burst, not per frame.
func TestServePipelinedDiscoversShareWrites(t *testing.T) {
	const burst = 64
	counters := metrics.NewCounters()
	ct := &countingTCP{}
	server, peer := serveFixture(t, Config{Name: "serve-burst", Counters: counters}, ct, burst)

	var frames []*wire.Message
	for i := 0; i < burst; i++ {
		frames = append(frames, discover(i))
	}
	peer.write(nil, frames...)
	for i := 0; i < burst; i++ {
		peer.expectDiscovered(i)
	}
	writes := ct.writes.Load()
	if writes >= burst {
		t.Errorf("%d replies took %d server writes, want strictly fewer", burst, writes)
	}
	// Each flush is counted as it is made, the ping's reply too.
	if got := counters.Get("serve.frames"); got != burst {
		t.Errorf("serve.frames = %d, want %d", got, burst)
	}
	if got := counters.Get("serve.flushes"); got != uint64(writes) {
		t.Errorf("serve.flushes = %d, want the %d writes the socket saw", got, writes)
	}
	peer.write(nil, &wire.Message{Type: wire.TPing, Seq: 1000})
	if m := peer.read(); m.Type != wire.TPong || m.Seq != 1000 {
		t.Fatalf("ping reply: %v seq=%d", m.Type, m.Seq)
	}
	if got := counters.Get("serve.frames"); got != burst+1 {
		t.Errorf("serve.frames = %d after the ping, want %d", got, burst+1)
	}
	if got, writes := counters.Get("serve.flushes"), ct.writes.Load(); got != uint64(writes) {
		t.Errorf("serve.flushes = %d after the ping, want the %d writes the socket saw", got, writes)
	}
	if got := FramesPerWrite(server.Stats().Counters, "serve"); got <= 1 {
		t.Errorf("serve frames per write = %.2f, want > 1", got)
	}
}

// Queued replies leave when the reader runs out of input, even when what
// is left in its buffer is the beginning of a frame that is not complete.
func TestServeFlushesBehindPartialFrame(t *testing.T) {
	_, peer := serveFixture(t, Config{Name: "serve-partial"}, &transport.TCP{}, 4)
	fourth, err := wire.AppendFrame(nil, discover(3))
	if err != nil {
		t.Fatal(err)
	}
	peer.write(fourth[:4], discover(0), discover(1), discover(2)) // three frames and half a header
	for i := 0; i < 3; i++ {
		peer.expectDiscovered(i)
	}
	peer.write(fourth[4:])
	peer.expectDiscovered(3)
}

// A failed reply write ends no read. A peer sends rounds of a discover and
// a run of pushes, and closes before the server reads any of it: the
// replies flushed between the rounds find the peer gone, and every push
// behind them is still applied.
func TestServeFailedReplyEndsNoRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"tcp", &transport.TCP{}, "127.0.0.1:0"},
		{"mem", transport.NewMem(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds, pushes = 4, 100
			gate := &gatedAccept{Transport: tc.tr, open: make(chan struct{})}
			counters := metrics.NewCounters()
			server := mustNode(t, Config{Name: "serve-gone-peer", Counters: counters}, gate)
			if err := server.Start(tc.addr); err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			defer gate.release() // before Close, which waits for the accept loop
			peer, err := tc.tr.Dial(server.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				if err := peer.Queue(discover(r)); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pushes; i++ {
					key := hashkey.Key(r*pushes + i + 1)
					if err := peer.Queue(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: key, Addr: serveAddr(i), Epoch: 1}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := peer.Flush(); err != nil {
				t.Fatal(err)
			}
			peer.Close()
			gate.release()
			waitFor(t, "every push to be applied", func() bool { return counters.Get("updates.applied") == rounds*pushes })
			// A failed write is sticky: the rounds behind it queue no reply.
			if got := counters.Get("serve.flushes"); got == 0 || got >= rounds {
				t.Errorf("serve.flushes = %d, want from 1 to %d: a reply flushed, and a write that failed", got, rounds-1)
			}
		})
	}
}

// gatedAccept is a transport whose listeners accept nothing until release.
type gatedAccept struct {
	transport.Transport
	open chan struct{}
	once sync.Once
}

func (g *gatedAccept) release() { g.once.Do(func() { close(g.open) }) }

func (g *gatedAccept) Listen(addr string) (transport.Listener, error) {
	l, err := g.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &gatedListener{Listener: l, open: g.open}, nil
}

type gatedListener struct {
	transport.Listener
	open chan struct{}
}

func (l *gatedListener) Accept() (transport.Conn, error) {
	<-l.open
	return l.Listener.Accept()
}

// An attachment point serves at most its bound of conns at once: one more
// is closed on accept and counted, and room freed by a closed conn is
// served again.
func TestAcceptedConnsShedAtBound(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	server := mustNode(t, Config{Name: "serve-bound", Counters: counters}, mem)
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ls := server.listener
	ls.mu.Lock()
	ls.max = 2
	ls.mu.Unlock()

	ping := func(c transport.Conn) error {
		if err := c.Send(&wire.Message{Type: wire.TPing, Seq: 1}); err != nil {
			return err
		}
		_, err := c.Recv()
		return err
	}
	var conns []transport.Conn
	for i := 0; i < 3; i++ {
		c, err := mem.Dial(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	for i, c := range conns[:2] {
		if err := ping(c); err != nil {
			t.Fatalf("conn %d under the bound: %v", i, err)
		}
	}
	if err := ping(conns[2]); err == nil {
		t.Fatal("the conn past the bound was served")
	}
	if got := counters.Get("serve.shed"); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}
	conns[0].Close()
	waitFor(t, "the closed conn to leave the attachment", func() bool {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return len(ls.conns) == 1
	})
	c, err := mem.Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := ping(c); err != nil {
		t.Fatalf("a conn admitted into freed room: %v", err)
	}
}

// parkedDialTCP is transport.TCP whose dials to park wait until their
// context ends: a head that is never reached, without a packet sent.
type parkedDialTCP struct {
	transport.TCP
	park    string
	entered chan struct{} // one token per parked dial
}

func (p *parkedDialTCP) DialContext(ctx context.Context, addr string) (transport.Conn, error) {
	if addr == p.park {
		p.entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return p.TCP.DialContext(ctx, addr)
}

// TUpdate's forwarding runs on the conn's reader, and the delegated head's
// session dials on its own. With that dial parked for a minute, the
// discovers pipelined behind the update are answered at once, and Close
// aborts the parked dial instead of waiting it out.
func TestServeParkedForwardDoesNotDelayReplies(t *testing.T) {
	tr := &parkedDialTCP{park: "127.0.0.1:1", entered: make(chan struct{}, 1)}
	server, peer := serveFixture(t, Config{Name: "serve-forward", RequestTimeout: time.Minute}, tr, 8)

	frames := []*wire.Message{{
		Type:    wire.TUpdate,
		Self:    wire.Entry{Key: 7, Addr: "192.0.2.200:1", Epoch: 1},
		Entries: []wire.Entry{{Key: 8, Addr: tr.park, Capacity: 1}},
	}}
	for i := 0; i < 8; i++ {
		frames = append(frames, discover(i))
	}
	peer.write(nil, frames...)
	for i := 0; i < 8; i++ {
		peer.expectDiscovered(i)
	}
	<-tr.entered // the forward is parked in its dial

	closed := make(chan struct{})
	go func() {
		server.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited behind the parked forward")
	}
}

// Over a slow link (transport.Faulty with a delay profile) each reply is
// held in flight, not its sender: pipelined requests are answered in about
// one delay, not one delay per frame.
func TestServeDelayedRepliesLeaveSideBySide(t *testing.T) {
	const burst, delay = 10, 50 * time.Millisecond
	faulty := transport.NewFaulty(&transport.TCP{}, transport.FaultConfig{Seed: 1, DelayMin: delay, DelayMax: delay})
	_, peer := serveFixture(t, Config{Name: "serve-delayed"}, faulty.Endpoint("server"), 0)

	var frames []*wire.Message
	for i := 0; i < burst; i++ {
		frames = append(frames, &wire.Message{Type: wire.TPing, Seq: uint32(i + 1)})
	}
	start := time.Now()
	peer.write(nil, frames...)
	seen := map[uint32]bool{}
	for i := 0; i < burst; i++ {
		if m := peer.read(); m.Type != wire.TPong || seen[m.Seq] {
			t.Fatalf("reply %d: %v seq=%d", i, m.Type, m.Seq)
		} else {
			seen[m.Seq] = true
		}
	}
	if elapsed := time.Since(start); elapsed > burst*delay/2 {
		t.Errorf("%d replies over a %v link took %v: the sends queued behind each other", burst, delay, elapsed)
	}
}
