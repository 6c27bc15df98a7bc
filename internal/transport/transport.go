// Package transport abstracts how live Bristle nodes exchange wire
// frames: a TCP transport for real deployments and an in-memory transport
// for fast, deterministic tests. Both expose the same Dial/Listen
// contract, so internal/live is transport-agnostic.
package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
	// ErrBacklogFull means the listener exists but its accept queue stayed
	// saturated for the bounded dial wait. Distinct from ErrRefused so
	// callers can treat it as backpressure (retry soon) rather than
	// absence.
	ErrBacklogFull = errors.New("transport: accept backlog full")
	// ErrTimeout is returned by Send/Recv when a deadline set with
	// SetDeadline expires.
	ErrTimeout = errors.New("transport: i/o timeout")
)

// IsTimeout reports whether err represents an exceeded deadline on any
// transport (the in-memory ErrTimeout sentinel or a net.Error timeout
// from the TCP stack).
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Conn is a bidirectional framed-message connection.
//
// Send, Queue and Flush are safe for any number of concurrent callers:
// frames never interleave and leave in the order the calls were admitted.
// A failed write is sticky — the stream's framing is gone, so every later
// Send, Queue and Flush reports the same error. Recv has one caller at a
// time.
type Conn interface {
	// Send writes one message, behind anything queued before it, and
	// returns once the transport has taken the bytes.
	Send(*wire.Message) error
	// Queue encodes one message into the conn's output buffer. It reaches
	// the peer with the next Flush or Send, or before a Recv on this conn
	// blocks — so a reader that answers requests with Queue pays one write
	// per burst of requests and never holds a reply while it waits for
	// input. pending counts the frames now buffered, this one included: 1
	// means everything queued earlier has already left, in one write. (Mem
	// delivers at once and always reports 1.)
	Queue(*wire.Message) (pending int, err error)
	// Flush writes everything queued, in one write.
	Flush() error
	// SendStalls reports whether Send and Queue may pause for something
	// other than the peer's own backpressure — Faulty's injected link
	// delay. A goroutine that must stay responsive, such as the conn's
	// reader, hands its sends to another goroutine while this holds.
	SendStalls() bool
	// Recv blocks for the next message.
	Recv() (*wire.Message, error)
	// SetDeadline bounds every subsequent Send and Recv: an operation
	// still blocked at t fails with an error satisfying IsTimeout. The
	// zero time clears the deadline. It lets callers bound an exchange at
	// the socket level, so a hung peer cannot block a reader forever.
	SetDeadline(t time.Time) error
	// Close tears the connection down; pending Recv returns an error.
	Close() error
	// RemoteAddr names the peer (dialable for TCP).
	RemoteAddr() string
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
}

// ContextDialer is implemented by transports whose connection attempts
// can be bounded by a context, so a caller's deadline covers the dial
// itself and not just post-dial I/O. TCP, Mem, and Faulty endpoints all
// implement it.
type ContextDialer interface {
	DialContext(ctx context.Context, addr string) (Conn, error)
}

// DialContext dials addr through tr, honoring ctx when the transport
// supports it and falling back to a plain Dial otherwise (after a
// fast-path check that ctx is still live). The error for an expired
// deadline satisfies IsTimeout.
func DialContext(ctx context.Context, tr Transport, addr string) (Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if cd, ok := tr.(ContextDialer); ok {
		return cd.DialContext(ctx, addr)
	}
	return tr.Dial(addr)
}

// --- TCP ---

// TCP is the production transport over the operating system's TCP stack.
// The zero value is ready to use.
type TCP struct{}

// tcpDialTimeout bounds a connection attempt whose context does not.
const tcpDialTimeout = 5 * time.Second

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
// tcpDialTimeout — whichever expires first aborts the attempt.
func (t *TCP) DialContext(ctx context.Context, addr string) (Conn, error) {
	d := net.Dialer{Timeout: tcpDialTimeout}
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

type tcpConn struct {
	c net.Conn
	r *bufio.Reader // fed by flushReader

	mu      sync.Mutex // serializes Send/Queue/Flush; guards the fields below
	out     []byte     // encoded frames not yet written; reused across flushes
	pending int        // frames in out
	werr    error      // first failed write; sticky
}

// NewConn frames any stream connection — what TCP's Dial and Accept
// return, exported so a test can put its own net.Conn underneath.
func NewConn(c net.Conn) Conn {
	tc := &tcpConn{c: c}
	tc.r = bufio.NewReader(flushReader{tc})
	return tc
}

// flushReader is the source under a tcpConn's read buffer. The buffer
// comes here only when it has run out of bytes, which is the moment before
// Recv can block — with input still buffered, even half a frame of it
// followed by nothing, queued output is already on its way.
type flushReader struct{ tc *tcpConn }

func (fr flushReader) Read(p []byte) (int, error) {
	if err := fr.tc.Flush(); err != nil {
		return 0, err
	}
	return fr.tc.c.Read(p)
}

// enqueue appends m's frame to out. Caller holds mu.
func (tc *tcpConn) enqueue(m *wire.Message) error {
	if tc.werr != nil {
		return tc.werr
	}
	out, err := wire.AppendFrame(tc.out, m)
	if err != nil {
		return err // nothing was queued; the conn stays usable
	}
	tc.out = out
	tc.pending++
	return nil
}

// flush writes out in one Write. Caller holds mu.
func (tc *tcpConn) flush() error {
	if tc.werr != nil || tc.pending == 0 {
		return tc.werr
	}
	_, tc.werr = tc.c.Write(tc.out)
	tc.out, tc.pending = tc.out[:0], 0
	return tc.werr
}

func (tc *tcpConn) Send(m *wire.Message) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := tc.enqueue(m); err != nil {
		return err
	}
	return tc.flush()
}

func (tc *tcpConn) Queue(m *wire.Message) (int, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	err := tc.enqueue(m)
	return tc.pending, err
}

func (tc *tcpConn) Flush() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.flush()
}

func (tc *tcpConn) SendStalls() bool { return false }

func (tc *tcpConn) Recv() (*wire.Message, error)  { return wire.Decode(tc.r) }
func (tc *tcpConn) SetDeadline(t time.Time) error { return tc.c.SetDeadline(t) }
func (tc *tcpConn) Close() error                  { return tc.c.Close() }
func (tc *tcpConn) RemoteAddr() string            { return tc.c.RemoteAddr().String() }

// --- In-memory ---

// Mem is an in-process transport keyed by string addresses. It is safe
// for concurrent use and delivers frames through buffered channels —
// deterministic and fast for tests.
type Mem struct {
	// BacklogWait bounds how long Dial waits for a saturated accept
	// backlog to drain before failing with ErrBacklogFull (default 100ms).
	BacklogWait time.Duration

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
		addr = memAutoAddr(m.nextAuto)
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

func memAutoAddr(n int) string {
	return "mem:" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Dial connects to a registered listener. When the listener's accept
// backlog is saturated, Dial waits up to BacklogWait for the accepter to
// drain it — a briefly busy peer is backpressure, not failure — and only
// then fails with ErrBacklogFull (distinct from ErrRefused so callers can
// classify retryable congestion vs an absent peer).
func (m *Mem) Dial(addr string) (Conn, error) {
	return m.DialContext(context.Background(), addr)
}

// DialContext dials like Dial but also aborts — including during the
// backlog wait — as soon as ctx is cancelled or its deadline passes, so
// the caller's deadline bounds the whole dial, not just post-dial I/O.
func (m *Mem) DialContext(ctx context.Context, addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	}
	client, server := newMemPair(addr)
	select {
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	case l.backlog <- server:
		return client, nil
	default:
	}
	wait := m.BacklogWait
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	case l.backlog <- server:
		return client, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s", ErrBacklogFull, addr)
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

func (l *memListener) Close() error {
	l.once.Do(func() {
		l.owner.remove(l.addr)
		close(l.closed)
	})
	return nil
}
func (l *memListener) Addr() string { return l.addr }

type memConn struct {
	out    chan *wire.Message
	in     chan *wire.Message
	closed chan struct{}
	once   sync.Once
	peer   *memConn
	remote string

	dmu      sync.Mutex
	deadline time.Time
}

func newMemPair(serverAddr string) (client, server *memConn) {
	a2b := make(chan *wire.Message, 256)
	b2a := make(chan *wire.Message, 256)
	client = &memConn{out: a2b, in: b2a, closed: make(chan struct{}), remote: serverAddr}
	server = &memConn{out: b2a, in: a2b, closed: make(chan struct{}), remote: "mem:client"}
	client.peer, server.peer = server, client
	return client, server
}

func (c *memConn) Send(m *wire.Message) error {
	// Round-trip through the codec so the mem transport exercises exactly
	// the same encoding invariants as TCP, using pooled scratch so the
	// detour costs no per-frame allocation.
	fp := wire.GetFrame()
	frame, err := wire.AppendFrame(*fp, m)
	if err != nil {
		wire.PutFrame(fp)
		return err
	}
	copied, err := wire.Decode(bytes.NewReader(frame))
	*fp = frame[:0]
	wire.PutFrame(fp)
	if err != nil {
		return err
	}
	// Closed checks take priority over an available buffer slot.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return io.ErrClosedPipe
	default:
	}
	expired, stop := c.deadlineTimer()
	defer stop()
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return io.ErrClosedPipe
	case c.out <- copied:
		return nil
	case <-expired:
		return fmt.Errorf("%w: send", ErrTimeout)
	}
}

// Queue delivers at once: a channel send is already as cheap as buffering.
func (c *memConn) Queue(m *wire.Message) (int, error) { return 1, c.Send(m) }
func (c *memConn) Flush() error                       { return nil }
func (c *memConn) SendStalls() bool                   { return false }

// SetDeadline bounds subsequent Send and Recv calls; the zero time clears
// the bound.
func (c *memConn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.deadline = t
	c.dmu.Unlock()
	return nil
}

// deadlineTimer arms a timer for the current deadline. A nil channel
// (no deadline) never fires in a select.
func (c *memConn) deadlineTimer() (<-chan time.Time, func()) {
	c.dmu.Lock()
	d := c.deadline
	c.dmu.Unlock()
	if d.IsZero() {
		return nil, func() {}
	}
	t := time.NewTimer(time.Until(d))
	return t.C, func() { t.Stop() }
}

func (c *memConn) Recv() (*wire.Message, error) {
	expired, stop := c.deadlineTimer()
	defer stop()
	select {
	case m := <-c.in:
		return m, nil
	case <-expired:
		return nil, fmt.Errorf("%w: recv", ErrTimeout)
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peer.closed:
		// Drain anything already queued before reporting EOF.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, io.EOF
		}
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
func (c *memConn) RemoteAddr() string { return c.remote }
