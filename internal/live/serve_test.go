package live

// Tests for serveConn's dispatch rule over real sockets: frames whose
// handlers never wait are answered on the reader goroutine with their
// replies coalesced into one write per burst; everything else keeps its
// own goroutine and cannot delay them.

import (
	"bufio"
	"fmt"
	"log"
	"net"
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
		server.store.apply(wire.Entry{Key: serveKey(i), Addr: serveAddr(i), Epoch: 1}, serveKey(i), time.Now())
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
	// The burst's last write is reported when the next reply is queued.
	peer.write(nil, &wire.Message{Type: wire.TPing, Seq: 1000})
	if m := peer.read(); m.Type != wire.TPong || m.Seq != 1000 {
		t.Fatalf("ping reply: %v seq=%d", m.Type, m.Seq)
	}
	if got := counters.Get("serve.frames"); got != burst {
		t.Errorf("serve.frames = %d, want %d", got, burst)
	}
	if got := counters.Get("serve.flushes"); got != uint64(writes) {
		t.Errorf("serve.flushes = %d, want the %d writes the socket saw", got, writes)
	}
	if got := server.Stats().ServeFramesPerWrite; got <= 1 {
		t.Errorf("Stats().ServeFramesPerWrite = %.2f, want > 1", got)
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

// gatedWriter blocks every Write while shut: a Logger on top of it parks
// whichever handler logs next.
type gatedWriter struct {
	shut    atomic.Bool
	entered chan struct{} // one token per Write that found the gate shut
	open    chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if g.shut.Load() {
		g.entered <- struct{}{}
		<-g.open
	}
	return len(p), nil
}

// A handler parked on the goroutine path holds up neither the reader nor
// the replies to inline frames behind it on the same conn.
func TestServeParkedHandlerDoesNotDelayInlineReplies(t *testing.T) {
	gate := &gatedWriter{entered: make(chan struct{}, 1), open: make(chan struct{})}
	cfg := Config{Name: "serve-parked", Logger: log.New(gate, "", 0)}
	_, peer := serveFixture(t, cfg, &transport.TCP{}, 8)

	gate.shut.Store(true)
	peer.write(nil, &wire.Message{Type: wire.TRegister, Seq: 500, Self: wire.Entry{Key: 7, Addr: "192.0.2.200:1"}})
	<-gate.entered // handleRegister is inside its log line and stays there

	var frames []*wire.Message
	for i := 0; i < 8; i++ {
		frames = append(frames, discover(i))
	}
	peer.write(nil, frames...)
	for i := 0; i < 8; i++ {
		peer.expectDiscovered(i)
	}

	gate.shut.Store(false)
	close(gate.open)
	if m := peer.read(); m.Type != wire.TRegisterAck || m.Seq != 500 {
		t.Fatalf("parked handler's reply: %v seq=%d", m.Type, m.Seq)
	}
}
