// Package transport abstracts how live Bristle nodes exchange wire
// frames: a TCP transport for real deployments and an in-memory transport
// for fast, deterministic tests. Both hand out the same framed Conn over a
// byte stream — a socket for TCP, an in-process pipe for Mem — so the
// framing and batching that internal/live relies on are the same code on
// both. A conn writes only when its owner says so: Queue holds frames
// until a Flush or a Send, and Recv only reads.
package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bristle/internal/wire"
)

// Sentinel errors. Callers classify them (via errors.Is) to decide
// whether an operation is worth retrying.
var (
	// ErrClosed is returned after Close on listeners and conns.
	ErrClosed = errors.New("transport: closed")
	// ErrRefused means no listener answers at the address — transient in a
	// mobile network, where the peer may be mid-rebind.
	ErrRefused = errors.New("transport: connection refused")
	// ErrPartialWrite marks a write its deadline cut after it sent part
	// of what was queued: the stream may stand mid-frame until a later
	// write sends the rest. It comes wrapped with the timeout.
	ErrPartialWrite = errors.New("transport: write cut part-way")
)

// IsTimeout reports whether err represents an exceeded deadline: a
// net.Error timeout from a conn's deadline or the TCP stack, or
// context.DeadlineExceeded from a bounded dial or exchange.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Conn is a bidirectional framed-message connection.
//
// Send, Queue and Flush are safe for any number of concurrent callers:
// frames never interleave and leave in the order the calls were admitted.
// None of them waits on the link (Faulty holds a delayed frame in flight,
// not its sender), so a conn's reader may answer on it inline.
// A failed write is sticky — the stream's framing is gone, so every later
// Send, Queue and Flush reports the same error. Recv has one caller at a
// time, and never writes: a reader that answers with Queue flushes its
// replies itself before a Recv that may block.
//
// Deadlines bound the waits on the link. A read deadline bounds Recv
// alone; a write deadline bounds Send and Flush. Both pass straight to the
// stream, so a new one also reaches a wait in progress. The zero time
// means no bound. A wait the deadline ends fails with an error IsTimeout
// reports, and costs the stream nothing: a Recv the deadline cuts keeps
// what it read of the frame in progress, and the next Recv completes it;
// a write it cuts keeps what it did not send queued, and the next write
// resumes the stream where the cut one stopped (ErrPartialWrite marks a
// cut that sent part of it).
type Conn interface {
	// Send writes one message, behind anything queued before it, and
	// returns once the transport has taken the bytes.
	Send(*wire.Message) error
	// Queue encodes one message into the conn's output buffer, where it
	// waits for the next Flush or Send: frames queued together leave in
	// one write.
	Queue(*wire.Message) error
	// Flush writes everything queued, in one write.
	Flush() error
	// Recv blocks for the next message.
	Recv() (*wire.Message, error)
	// Buffered reports whether Recv would return at once, from what has
	// already been read off the link. Its caller is Recv's.
	Buffered() bool
	// SetReadDeadline bounds a Recv in progress and every later one by t.
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline bounds a write in progress and every later Send and
	// Flush by t. It does not wait for the write: a writer sets its
	// deadline before it flushes, and another caller may cut the write.
	SetWriteDeadline(t time.Time) error
	// PeerClosed reports, without waiting and without reading, whether
	// the peer has closed the connection — also behind frames it sent
	// before it closed, which stay for Recv. A writer that no reader
	// serves asks it before it writes: the first write after the peer's
	// close may succeed while its frames are lost.
	PeerClosed() bool
	// Close tears the connection down; pending Recv returns an error.
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the dialable address of this listener.
	Addr() string
}

// Transport creates listeners and dials peers.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
	// DialContext dials like Dial, and ctx bounds the connection attempt
	// itself: an ended ctx fails the dial with ctx's error.
	DialContext(ctx context.Context, addr string) (Conn, error)
}

// --- TCP ---

// TCP is the production transport over the operating system's TCP stack.
// The zero value is ready to use.
type TCP struct{}

// dialTimeout bounds a connection attempt whose context does not, on TCP
// and on Mem alike.
const dialTimeout = 5 * time.Second

// Listen binds a TCP listener; addr ":0" picks a free port.
func (t *TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a listener address.
func (t *TCP) Dial(addr string) (Conn, error) {
	return t.DialContext(context.Background(), addr)
}

// DialContext connects to a listener address, bounded by both ctx and
// dialTimeout — whichever expires first aborts the attempt.
func (t *TCP) DialContext(ctx context.Context, addr string) (Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

type tcpListener struct{ l net.Listener }

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}
func (tl *tcpListener) Close() error { return tl.l.Close() }
func (tl *tcpListener) Addr() string { return tl.l.Addr().String() }

// streamConn frames messages over a byte stream: a socket for TCP, one end
// of a pipe pair for Mem.
type streamConn struct {
	rw io.ReadWriteCloser
	dl deadliner        // rw's deadlines; nil if it has none, and then deadlines do nothing
	br *bufio.Reader    // over rw
	fr wire.FrameReader // over br

	mu   sync.Mutex // serializes Send/Queue/Flush; guards the fields below
	out  []byte     // encoded frames not yet written; reused across flushes
	werr error      // first failed write; sticky
}

// deadliner is the deadline half of net.Conn.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// NewConn frames any byte stream — what TCP's Dial and Accept return over
// a socket, and Mem's over a pipe; exported so a test can put its own
// net.Conn underneath. Deadlines pass straight to the stream if it has
// SetReadDeadline and SetWriteDeadline, as a net.Conn does.
func NewConn(rw io.ReadWriteCloser) Conn {
	sc := &streamConn{rw: rw}
	sc.dl, _ = rw.(deadliner)
	sc.br = bufio.NewReader(rw)
	sc.fr.R = sc.br
	return sc
}

// enqueue appends m's frame to out. Caller holds mu.
func (sc *streamConn) enqueue(m *wire.Message) error {
	if sc.werr != nil {
		return sc.werr
	}
	out, err := wire.AppendFrame(sc.out, m)
	if err != nil {
		return err // nothing was queued; the conn stays usable
	}
	sc.out = out
	return nil
}

// flush writes out in one Write, bounded by the write deadline. Caller
// holds mu.
func (sc *streamConn) flush() error {
	if sc.werr != nil || len(sc.out) == 0 {
		return sc.werr
	}
	n, err := sc.rw.Write(sc.out)
	if err != nil && IsTimeout(err) {
		// What the cut write did not send stays queued, in order: the
		// next write resumes the stream, mid-frame or not.
		sc.out = sc.out[:copy(sc.out, sc.out[n:])]
		if n > 0 {
			err = fmt.Errorf("%w: %w", ErrPartialWrite, err)
		}
		return err
	}
	sc.werr = err
	sc.out = sc.out[:0]
	return sc.werr
}

func (sc *streamConn) Send(m *wire.Message) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.enqueue(m); err != nil {
		return err
	}
	return sc.flush()
}

func (sc *streamConn) Queue(m *wire.Message) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.enqueue(m)
}

func (sc *streamConn) Flush() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.flush()
}

// PeerClosed asks the stream: a socket by its TCP state, a Mem pipe by its
// closed flag. A stream that cannot tell reports false.
func (sc *streamConn) PeerClosed() bool {
	switch rw := sc.rw.(type) {
	case *memEnd:
		return rw.in.writerClosed()
	case syscall.Conn:
		return socketPeerClosed(rw)
	}
	return false
}

func (sc *streamConn) Recv() (*wire.Message, error) { return sc.fr.Next() }
func (sc *streamConn) Close() error                 { return sc.rw.Close() }

func (sc *streamConn) Buffered() bool {
	ahead, _ := sc.br.Peek(sc.br.Buffered())
	return sc.fr.Buffered(ahead)
}

func (sc *streamConn) SetReadDeadline(t time.Time) error {
	if sc.dl == nil {
		return nil
	}
	return sc.dl.SetReadDeadline(t)
}

func (sc *streamConn) SetWriteDeadline(t time.Time) error {
	if sc.dl == nil {
		return nil
	}
	return sc.dl.SetWriteDeadline(t)
}

// --- In-memory ---

// Mem is an in-process transport keyed by string addresses. It is safe
// for concurrent use. Its conns are the same framed conns TCP hands out,
// over a pair of in-process byte pipes instead of a socket.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	nextAuto  int
}

// NewMem creates an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen registers a listener at addr. Empty addr or ":0" allocates a
// unique synthetic address.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" || addr == ":0" {
		m.nextAuto++
		addr = "mem:" + strconv.Itoa(m.nextAuto)
	}
	if _, taken := m.listeners[addr]; taken {
		return nil, errors.New("transport: address in use: " + addr)
	}
	l := &memListener{
		addr:    addr,
		backlog: make(chan Conn, 64),
		owner:   m,
		closed:  make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial connects to a registered listener.
func (m *Mem) Dial(addr string) (Conn, error) {
	return m.DialContext(context.Background(), addr)
}

// DialContext dials as TCP's does: a listener whose accept backlog is
// full holds the dial until the accepter frees a slot, the listener
// closes (ErrRefused), or ctx or dialTimeout ends, which fails it with
// the context's error.
func (m *Mem) DialContext(ctx context.Context, addr string) (Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	}
	client, server := newMemPair()
	select {
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	case l.backlog <- server:
		return l.admitted(client, addr)
	default:
	}
	ctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	select {
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	case l.backlog <- server:
		return l.admitted(client, addr)
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
	}
}

func (m *Mem) remove(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	addr    string
	backlog chan Conn
	owner   *Mem
	once    sync.Once
	closed  chan struct{}
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Close refuses further dials and closes every conn still waiting in the
// backlog, as a closing TCP listener resets its unaccepted connections:
// their dialers read EOF instead of waiting for an accept that never comes.
func (l *memListener) Close() error {
	l.once.Do(func() {
		l.owner.remove(l.addr)
		close(l.closed)
	})
	l.drain()
	return nil
}

func (l *memListener) drain() {
	for {
		select {
		case c := <-l.backlog:
			c.Close()
		default:
			return
		}
	}
}

// admitted finishes a dial whose server end entered the backlog. A Close
// that raced the dial may have drained the backlog before the entry
// arrived, so the dialer drains it after such a Close and reports the
// dial refused.
func (l *memListener) admitted(client Conn, addr string) (Conn, error) {
	select {
	case <-l.closed:
		l.drain()
		client.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	default:
		return client, nil
	}
}

func (l *memListener) Addr() string { return l.addr }

// newMemPair returns the two framed ends of a new in-process connection.
func newMemPair() (client, server Conn) {
	a2b, b2a := newPipe(), newPipe()
	return NewConn(&memEnd{in: b2a, out: a2b}), NewConn(&memEnd{in: a2b, out: b2a})
}

// memEnd is one end of an in-process connection: it reads one pipe and
// writes the other.
type memEnd struct{ in, out *pipe }

func (e *memEnd) Read(p []byte) (int, error)  { return e.in.read(p) }
func (e *memEnd) Write(p []byte) (int, error) { return e.out.write(p) }

func (e *memEnd) SetReadDeadline(t time.Time) error {
	e.in.setDeadline(&e.in.rdl, t)
	return nil
}

func (e *memEnd) SetWriteDeadline(t time.Time) error {
	e.out.setDeadline(&e.out.wdl, t)
	return nil
}

// Close drops this end's unread input and lets the peer drain what this
// end already wrote before it reads EOF.
func (e *memEnd) Close() error {
	e.in.closeRead()
	e.out.closeWrite()
	return nil
}

// pipe carries one direction of an in-process connection: the bytes
// written and not yet read, bounded at wire.MaxFrame the way a socket
// buffer is bounded, so a writer ahead of its reader waits.
type pipe struct {
	mu       sync.Mutex
	cond     sync.Cond // signals every change of buf, rclosed or wclosed, and a deadline passing
	buf      bytes.Buffer
	rclosed  bool     // the reading end closed: input is dropped, writes fail
	wclosed  bool     // the writing end closed: the reader drains, then EOF
	rdl, wdl deadline // the reading end's and the writing end's
}

// deadline bounds one end's waits on a pipe, as a socket's deadline does:
// past it, the end's reads or writes fail at once. Its timer is armed
// only when the end waits, and left armed while it would fire no later
// than t: an earlier wake-up finds t still ahead and waits on, so a
// deadline that moves on each exchange costs no timer until a wait.
type deadline struct {
	t     time.Time
	armed time.Time   // when the timer fires; zero when it is not armed
	timer *time.Timer // wakes the waiters
}

func (d *deadline) passed() bool { return !d.t.IsZero() && !time.Now().Before(d.t) }

func (p *pipe) setDeadline(d *deadline, t time.Time) {
	p.mu.Lock()
	d.t = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wait parks the caller until the pipe changes or d passes. Caller holds
// p.mu.
func (p *pipe) wait(d *deadline) {
	if !d.t.IsZero() && (d.armed.IsZero() || d.armed.After(d.t)) {
		d.armed = d.t
		if d.timer == nil {
			d.timer = time.AfterFunc(time.Until(d.t), func() { p.fire(d) })
		} else {
			d.timer.Reset(time.Until(d.t))
		}
	}
	p.cond.Wait()
}

func (p *pipe) fire(d *deadline) {
	p.mu.Lock()
	d.armed = time.Time{}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond.L = &p.mu
	return p
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(b) {
		switch {
		case p.wclosed:
			return n, ErrClosed
		case p.rclosed:
			return n, io.ErrClosedPipe
		case p.wdl.passed():
			return n, os.ErrDeadlineExceeded
		}
		room := wire.MaxFrame - p.buf.Len()
		if room == 0 {
			p.wait(&p.wdl)
			continue
		}
		chunk := min(room, len(b)-n)
		p.buf.Write(b[n : n+chunk])
		n += chunk
		p.cond.Broadcast()
	}
	return n, nil
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.rclosed:
			return 0, ErrClosed
		case p.rdl.passed():
			return 0, os.ErrDeadlineExceeded
		case p.buf.Len() > 0:
			n, _ := p.buf.Read(b)
			p.cond.Broadcast()
			return n, nil
		case p.wclosed:
			return 0, io.EOF
		}
		p.wait(&p.rdl)
	}
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rclosed = true
	p.buf.Reset()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) writerClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wclosed
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
