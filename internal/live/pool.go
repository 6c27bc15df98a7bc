package live

// This file is the multiplexed connection pool under the RPC layer: one
// long-lived transport.Conn per peer, shared by every concurrent exchange
// with that peer, which runs on its caller's goroutine. The caller whose
// frame finds nobody writing writes every frame staged behind it in one
// write; one waiting caller at a time reads the conn and demultiplexes
// replies to the others by sequence number, then hands the reading on
// (leader/follower). A session dials on its own goroutine, and what no
// caller can write — leftovers, one-way frames — goes to one writer of last
// resort, drain. A caller's reply is settled by exactly one of four: the
// reader with the reply, the attempt's deadline, the session's teardown or
// the caller's own context; every read and write on the link runs under
// the deadline of a caller it serves. Broken sessions tear down, fail
// their waiters with retryable errors, and are re-dialed by the next
// attempt (rpc.go's retries and breakers). There is no unpooled exchange.
//
// A peer's session hangs off its record in the peer table (peer.go), under
// that record's mutex. The MaxSessions cap bounds the sessions kept, not
// the exchanges admitted: a newcomer is always admitted, and one rule,
// trim, sheds the least-recently-used idle session while the pool is over
// the cap — after an admission, after a drain or an exchange that leaves a
// session idle, and on each janitor tick. A session is idle when
// nobody waits on it and nobody writes on it, so an eviction loses no frame.
//
// The pool has no lifetime of its own; it lives in its node's. A dial, a
// drain and the janitor are goroutines the node counts (enter) and
// Node.Close joins, a dial runs under the node's lifetime context, and a
// session is admitted only while the node runs: Close tears down every
// session admitted before it stopped the node.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// PoolConfig tunes the per-peer multiplexed connection pool.
type PoolConfig struct {
	// MaxSessions caps how many peers keep a pooled session. Past the cap
	// the least-recently-used idle session is evicted (pool.evictions.cap);
	// an admission that finds every session busy stays over the cap
	// (pool.fallbacks) until a session goes idle, which is then evicted.
	// Default 64.
	MaxSessions int
	// IdleTimeout evicts sessions with no traffic for this long. Default 60s.
	IdleTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	return c
}

// errEvictedIdle and errEvictedCap mark the teardown of a session no
// exchange was riding: unused for IdleTimeout, or given up for the
// MaxSessions cap. A caller sees one only by losing a race with the
// eviction, and retries.
var (
	errEvictedIdle = errors.New("live: session evicted: idle")
	errEvictedCap  = errors.New("live: session evicted: pool at its cap")
)

// pool owns at most one session per peer: the sess of its record in the
// peer table.
type pool struct {
	n   *Node // whose lifetime the pool's goroutines run in, and whose breakers hear of one-way frames
	cfg PoolConfig

	// Event and level handles, taken once at construction (nil without a
	// registry, which counts nothing).
	dials, broken, orphans      *metrics.Counter
	evictionsCap, evictionsIdle *metrics.Counter
	fallbacks                   *metrics.Counter // admissions left over the cap: every session busy
	frames, flushes             *metrics.Counter // frames sent, and the writes that carried them
	sessions, inflight          *metrics.Gauge

	nsess atomic.Int64 // len(held), written under the node's lifeMu, read by trim without it

	// held is every session a peer holds, so the janitor, cap eviction and
	// Close walk the pool's own few sessions, not every address the node
	// has ever tried. It is guarded by the node's lifeMu, taken under a
	// peer's mutex, never around one: a session joins it in the critical
	// section that checks the node has not stopped.
	held map[*session]struct{}
}

// newPool builds n's pool and starts its janitor. n's lifetime context
// must exist.
func newPool(n *Node) *pool {
	counters, gauges := n.cfg.Counters, n.cfg.Gauges
	p := &pool{
		n:   n,
		cfg: n.cfg.Pool,

		dials:         counters.Counter("pool.dials"),
		broken:        counters.Counter("pool.broken"),
		orphans:       counters.Counter("pool.demux.orphans"),
		evictionsCap:  counters.Counter("pool.evictions.cap"),
		evictionsIdle: counters.Counter("pool.evictions.idle"),
		fallbacks:     counters.Counter("pool.fallbacks"),
		frames:        counters.Counter("pool.frames"),
		flushes:       counters.Counter("pool.flushes"),
		sessions:      gauges.Gauge("pool.sessions"),
		inflight:      gauges.Gauge("pool.inflight"),

		held: make(map[*session]struct{}),
	}
	if n.enter() {
		go p.janitor()
	}
	return p
}

// session is one peer's long-lived multiplexed connection. Once dialed it
// holds no goroutine of its own: its exchanges write and read it (write,
// read), and drain writes what no exchange can.
type session struct {
	p    *pool
	peer *peer

	// wmu orders the write side: frames are staged under it, and the
	// writer moves each batch to the conn under it — staged, not queued on
	// the conn, whose mutex is held across a write, and a frame registered
	// during a dial has no conn yet. Taken before mu.
	wmu      sync.Mutex
	staged   []wire.Message // the next batch, in order; frames registered while dialing wait here
	stagedBy time.Time      // the latest deadline of the callers it carries
	writing  bool           // someone holds the writer role
	queuedBy time.Time      // the latest deadline of the frames moved to the conn and not yet written; zero when none
	cut      error          // the cut that left them mid-frame, if one did; the writer's

	mu       sync.Mutex
	conn     transport.Conn // nil until the dial succeeds; set under wmu too
	torn     bool
	err      error              // teardown cause
	pending  map[uint32]*waiter // exchanges awaiting a reply, by Seq
	reader   *waiter            // the exchange that holds, or was handed, the reader role
	nextSeq  uint32
	inflight int       // exchanges between register and leave
	lastUse  time.Time // when the latest exchange or one-way frame started
}

// waiter is one exchange on a session: its frame, the channels its caller
// parks on, and the timer that bounds the attempt. settle is the only send
// into reply, and the first settler wins. A request's waiter is recycled
// only after a reply whose deadline was stopped before it fired: any other
// ending may leave the deadline's or a teardown's settle running.
type waiter struct {
	wire.Message
	by      time.Time          // the attempt's deadline: it bounds the caller's write, and a drain's while the frame is on the conn
	reply   chan *wire.Message // cap 1: the one settle never blocks
	lead    chan struct{}      // cap 1: the reader role, handed to this exchange
	timer   *time.Timer        // runs expire; stopped while pooled
	settled atomic.Bool
	cause   error // why a nil reply ended the exchange; set by settle
}

var waiterPool = sync.Pool{New: func() interface{} {
	w := &waiter{reply: make(chan *wire.Message, 1), lead: make(chan struct{}, 1)}
	w.timer = time.AfterFunc(time.Hour, w.expire)
	w.timer.Stop()
	return w
}}

// settle ends w's exchange with the reply m, or with cause when m is nil,
// unless another settler came first. It reports whether this call won.
func (w *waiter) settle(m *wire.Message, cause error) bool {
	if !w.settled.CompareAndSwap(false, true) {
		return false
	}
	w.cause = cause
	w.reply <- m
	return true
}

// expire is the attempt's deadline, which reads as
// context.DeadlineExceeded (so transport.IsTimeout holds).
func (w *waiter) expire() { w.settle(nil, context.DeadlineExceeded) }

func (w *waiter) recycle() {
	w.Message, w.by = wire.Message{}, time.Time{}
	w.settled.Store(false)
	w.cause = nil
	waiterPool.Put(w)
}

// idle reports whether evicting s would fail no exchange and lose no
// frame: it has dialed (a session still dialing was made for an exchange
// about to register on it), no exchange awaits a reply, and nobody holds
// the writer role. Caller holds s.wmu and s.mu.
func (s *session) idle() bool {
	return !s.torn && s.conn != nil && s.inflight == 0 && !s.writing
}

// acquire returns pr's session, creating one if absent and starting its
// dial by by. It never waits on a dial. A session it creates is admitted
// whatever the pool holds; trim then sheds back to the cap.
func (p *pool) acquire(pr *peer, by time.Time) (*session, error) {
	pr.mu.Lock()
	if s := pr.sess; s != nil {
		pr.mu.Unlock()
		return s, nil
	}
	s := &session{
		p:       p,
		peer:    pr,
		pending: make(map[uint32]*waiter),
		lastUse: time.Now(),
	}
	// Close sets stopped before it snapshots held, so a session joins held
	// before that snapshot — to be torn down with the rest — or not at
	// all; its dial is counted before Close can wait.
	n := p.n
	n.lifeMu.Lock()
	admitted := n.enterLocked()
	if admitted {
		p.held[s] = struct{}{}
		p.sessions.Set(p.nsess.Add(1))
	}
	n.lifeMu.Unlock()
	if !admitted {
		pr.mu.Unlock()
		return nil, ErrStopped
	}
	pr.sess = s
	pr.mu.Unlock()
	// Not under pr.mu: a victim's teardown takes its own peer's mutex. The
	// newcomer has not started dialing, so it is never the victim.
	if p.trim() {
		p.fallbacks.Inc()
	}
	go s.dial(by)
	return s, nil
}

// dial connects under the node's lifetime and by the creating attempt's
// deadline, hands the reader role to a request registered meanwhile, and
// writes the frames staged meanwhile. Its outcome is the pool's to record
// when only one-way frames were waiting — a waiting request records its
// own.
func (s *session) dial(by time.Time) {
	defer s.p.n.wg.Done()
	ctx, cancel := context.WithDeadline(s.p.n.runCtx, by)
	conn, err := s.p.n.tr.DialContext(ctx, s.peer.addr)
	cancel()
	if err != nil {
		if s.teardown(err) {
			s.peer.breakerResult(s.p.n, err, false)
		}
		return
	}
	s.wmu.Lock()
	s.mu.Lock()
	torn := s.torn // the node stopped while dialing
	if !torn {
		s.conn = conn
		s.promote()
	}
	oneWayOnly := s.inflight == 0 && len(s.staged) > 0
	s.mu.Unlock()
	write := !torn && len(s.staged) > 0 // nobody takes the writer role before the conn is set
	s.writing = write
	s.wmu.Unlock()
	if torn {
		conn.Close()
		return
	}
	s.p.dials.Inc()
	if oneWayOnly {
		s.peer.breakerResult(s.p.n, nil, false)
	}
	if write {
		s.drain(oneWayOnly)
	}
}

// stage adds a copy of m, whose caller waits until by, to the next batch.
// It reports whether the caller takes the writer role, which it does if
// nobody holds it while the session is dialed.
func (s *session) stage(m *wire.Message, by time.Time) (writer bool) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.staged = append(s.staged, *m)
	if by.After(s.stagedBy) {
		s.stagedBy = by
	}
	writer = !s.writing && s.conn != nil
	s.writing = s.writing || writer
	return writer
}

// write is an exchange's turn in the writer role: it writes the staged
// batch in one write, under w's deadline and ctx, and then each batch
// staged meanwhile for as long as w is a follower still waiting for its
// reply, its ctx live — writing costs it nothing then, and a frame staged
// behind a write starts no goroutine. A reader does not: nobody would read
// while it wrote. What it leaves — a batch w must not write, or the rest
// of a write its bounds cut — goes to drain, so no other caller's frame
// rides on w's bounds. A failure that breaks the stream tears the session
// down.
func (s *session) write(ctx context.Context, w *waiter, lead bool) {
	conn := s.conn
	conn.SetWriteDeadline(w.by)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { conn.SetWriteDeadline(longAgo) })
		defer stop()
	}
	for {
		by, err := s.take()
		if err == nil && !by.IsZero() { // frames on the conn
			s.p.flushes.Inc()
			err = conn.Flush()
		}
		if err == nil {
			if s.release(true) {
				return
			}
			if !lead && len(w.lead) == 0 && !w.settled.Load() && ctx.Err() == nil {
				continue
			}
		} else if broken(err) {
			s.teardown(fmt.Errorf("live: pooled send to %s: %w", s.peer.addr, err))
			return
		} else if errors.Is(err, transport.ErrPartialWrite) {
			s.cut = err
		}
		s.goDrain(false) // w is in flight: its session has a reader
		return
	}
}

// goDrain hands its caller's writer role to drain(probe), on a goroutine
// the node counts, so Close joins it. A stopped node has nobody left to
// write for, and Close tears the session down.
func (s *session) goDrain(probe bool) {
	if n := s.p.n; n.enter() {
		go func() { defer n.wg.Done(); s.drain(probe) }()
	}
}

// drain is the writer of last resort: it writes a one-way frame that found
// nobody writing, or what a writer left. On a session no exchange may be
// reading (probe), nothing else would notice the peer's close before a
// write that loses its frames, so it asks the conn first: a closed peer
// tears the session down, and a batch of one-way frames is staged on a
// fresh session. Then each write runs under the latest deadline of the
// frames on the conn. Once that passes, whole frames stay queued for the
// next writer, but a stream a cut left mid-frame is stuck, and the session
// tears down. No eviction takes a session while drain writes, so drain
// trims when it ends: the session it leaves may be idle.
func (s *session) drain(probe bool) {
	defer s.p.trim()
	conn := s.conn
	if probe && conn.PeerClosed() {
		if s.teardown(fmt.Errorf("live: pooled recv from %s: %w", s.peer.addr, io.EOF)) {
			s.wmu.Lock()
			batch, by := s.staged, s.stagedBy
			s.staged = nil
			s.wmu.Unlock()
			for i := range batch {
				s.p.send(s.peer, &batch[i], by)
			}
		}
		return
	}
	for {
		by, err := s.take()
		switch {
		case err != nil:
		case !time.Now().Before(by): // nothing left to write, or nobody left to write it for
			if s.cut == nil {
				if s.release(by.IsZero()) {
					return
				}
				continue
			}
			err = s.cut
		default:
			conn.SetWriteDeadline(by)
			s.p.flushes.Inc()
			if err = conn.Flush(); err == nil {
				if s.release(true) {
					return
				}
				continue
			}
			if !broken(err) {
				if errors.Is(err, transport.ErrPartialWrite) {
					s.cut = err
				}
				continue // take looks again: the deadline passed, or a cut an earlier writer's ctx left
			}
		}
		s.teardown(fmt.Errorf("live: pooled send to %s: %w", s.peer.addr, err))
		return
	}
}

// take moves the staged batch to the conn, and returns the latest
// deadline of the frames on the conn — zero when it holds none — or the
// error that broke the stream. A batch whose every deadline has passed,
// say behind a slow dial, is dropped. Caller holds the writer role.
func (s *session) take() (time.Time, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	if len(s.staged) > 0 && time.Now().Before(s.stagedBy) {
		for i := range s.staged {
			if err = s.conn.Queue(&s.staged[i]); err != nil {
				break
			}
		}
		s.p.frames.Add(uint64(len(s.staged)))
		if s.stagedBy.After(s.queuedBy) {
			s.queuedBy = s.stagedBy
		}
	}
	clear(s.staged) // the frames' entries belong to their callers
	s.staged, s.stagedBy = s.staged[:0], time.Time{}
	return s.queuedBy, err
}

// release gives the writer role up if nothing is staged, and reports
// whether it did. written says every frame moved to the conn has left;
// frames still on the conn wait for the next writer.
func (s *session) release(written bool) (released bool) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if written {
		s.queuedBy, s.cut = time.Time{}, nil
	}
	released = len(s.staged) == 0
	s.writing = !released
	return released
}

// read holds the reader role for w. It reads the session under w's
// deadline and ctx, settling every reply by Seq, until w's own exchange
// ends; a reader whose reply came while others wait first settles what
// its read buffer already holds. A deadline or a ctx ends the read, not
// the session: the next reader resumes a frame it cut. Any other receive
// error tears the session down: on a real stream a framing error is
// unrecoverable, and a fresh connection is one retry away. read returns
// w's outcome.
func (s *session) read(ctx context.Context, conn transport.Conn, w *waiter, by time.Time) *wire.Message {
	if !w.settled.Load() {
		conn.SetReadDeadline(by)
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(longAgo) })
			defer stop()
		}
		s.readFor(ctx, conn, w, by)
	}
	return <-w.reply
}

// broken reports whether err ends the session: any failure but a
// deadline, which costs the stream nothing.
func broken(err error) bool {
	return err != nil && !transport.IsTimeout(err)
}

// longAgo is a deadline that has passed.
var longAgo = time.Unix(1, 0)

func (s *session) readFor(ctx context.Context, conn transport.Conn, w *waiter, by time.Time) {
	for {
		m, err := conn.Recv()
		if err != nil {
			switch {
			case broken(err):
				s.teardown(fmt.Errorf("live: pooled recv from %s: %w", s.peer.addr, err))
				return
			case w.settled.Load():
				return
			case ctx.Err() != nil:
				w.settle(nil, ctx.Err())
				return
			case !time.Now().Before(by):
				w.expire()
				return
			}
			conn.SetReadDeadline(by) // a wake-up an earlier reader's ctx left
			continue
		}
		if others := s.deliver(m); w.settled.Load() && (!others || !conn.Buffered()) {
			return
		}
	}
}

// deliver settles the exchange m answers and reports whether others still
// wait. A reply nobody waits for — a duplicated frame's second answer, or
// the answer to an exchange already settled (timed out, or its caller
// gone) — is counted and dropped.
func (s *session) deliver(m *wire.Message) (others bool) {
	s.mu.Lock()
	w, ok := s.pending[m.Seq]
	if ok {
		delete(s.pending, m.Seq)
	}
	others = len(s.pending) > 0
	s.mu.Unlock()
	if !ok || !w.settle(m, nil) {
		s.p.orphans.Inc()
	}
	return others
}

// promote hands the reader role to an exchange still waiting, if there is
// one. Caller holds s.mu, and nobody holds the role.
func (s *session) promote() {
	for _, w := range s.pending {
		if !w.settled.Load() {
			s.reader = w
			w.lead <- struct{}{}
			return
		}
	}
}

// wait parks until w is settled, or until w is handed the reader role,
// which it then holds until its exchange ends. A caller without a ctx to
// watch pays no ctx case.
func (s *session) wait(ctx context.Context, w *waiter, by time.Time) *wire.Message {
	done := ctx.Done()
	for {
		select {
		case m := <-w.reply:
			return m
		case <-w.lead:
			return s.read(ctx, s.conn, w, by) // set before the role was handed on
		case <-done:
			w.settle(nil, ctx.Err()) // loses to a settler that came first
			done = nil
		}
	}
}

// teardown ends the session exactly once: every pending waiter is settled
// with err, the conn closes, and the pool forgets the session so the next
// attempt re-dials. An eviction backs off from a session that turned busy
// after lruIdle picked it. teardown reports whether this call tore a
// session only one-way frames were riding, whose callers will not hear of
// err.
func (s *session) teardown(err error) (oneWayOnly bool) {
	s.wmu.Lock()
	s.mu.Lock()
	evict := err == errEvictedCap || err == errEvictedIdle
	if s.torn || evict && !s.idle() {
		s.mu.Unlock()
		s.wmu.Unlock()
		return false
	}
	conn, pending := s.conn, s.pending
	oneWayOnly = s.inflight == 0 && len(s.staged) > 0
	s.torn, s.err, s.pending = true, err, nil
	s.mu.Unlock()
	s.wmu.Unlock()
	for _, w := range pending {
		w.settle(nil, err)
	}
	if conn != nil {
		conn.Close()
	}
	s.p.drop(s)
	switch err {
	case errEvictedIdle:
		s.p.evictionsIdle.Inc()
	case errEvictedCap:
		s.p.evictionsCap.Inc()
	case ErrStopped:
	default:
		s.p.broken.Inc()
	}
	return oneWayOnly
}

// register assigns m the next sequence number, and parks a request's
// waiter w for its reply; a one-way frame has none. start, when the
// exchange began, becomes the session's lastUse. A request that finds the
// session dialed and nobody reading takes the reader role (lead); crowded
// reports other exchanges in flight. It fails if the session is already
// torn.
func (s *session) register(m *wire.Message, w *waiter, start time.Time) (conn transport.Conn, lead, crowded bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn {
		return nil, false, false, s.err
	}
	s.nextSeq++
	m.Seq = s.nextSeq
	s.lastUse = start
	if w != nil {
		s.pending[m.Seq] = w
		s.inflight++
		s.p.inflight.Add(1)
		if lead = s.conn != nil && s.reader == nil; lead {
			s.reader = w
		}
	}
	return s.conn, lead, s.inflight > 1, nil
}

// leave ends w's exchange on the session: it forgets w, and passes the
// reader role on if w holds it or was handed it. A session it leaves idle
// may be the one trim sheds.
func (s *session) leave(w *waiter) {
	s.mu.Lock()
	delete(s.pending, w.Seq) // a no-op once delivered, or once teardown dropped the table
	if s.reader == w {
		s.reader = nil
		s.promote()
	}
	s.inflight--
	s.mu.Unlock()
	select {
	case <-w.lead: // handed the role as it left; promote passed it on
	default:
	}
	s.p.inflight.Add(-1)
	s.p.trim()
}

// roundTrip acquires pr's session and runs one request/response exchange
// over it, begun at start and bounded by ctx and by the attempt's deadline
// by. A slow reply to another caller cannot block this one: the reader
// settles every reply as it comes.
func (p *pool) roundTrip(ctx context.Context, pr *peer, m *wire.Message, start, by time.Time) (*wire.Message, error) {
	s, err := p.acquire(pr, by)
	if err != nil {
		return nil, err
	}
	w := waiterPool.Get().(*waiter)
	w.Message, w.by = *m, by
	conn, lead, crowded, err := s.register(&w.Message, w, start)
	if err != nil {
		w.recycle()
		return nil, err
	}
	w.timer.Reset(by.Sub(start))
	if s.stage(&w.Message, by) {
		if crowded {
			// Callers made runnable together — a burst of replies just woke
			// them — stage behind this frame before the one write. A lone
			// exchange does not yield: it would wake the idle processor.
			runtime.Gosched()
		}
		s.write(ctx, w, lead) // a failure settles w
	}
	var resp *wire.Message
	if lead {
		resp = s.read(ctx, conn, w, by)
	} else {
		resp = s.wait(ctx, w, by)
	}
	s.leave(w)
	if resp == nil {
		w.timer.Stop()
		return nil, s.cause(w)
	}
	if w.timer.Stop() {
		w.recycle()
	}
	return resp, nil
}

// cause returns why w's exchange ended without a reply. The deadline and
// the caller's ctx settle with the bare context errors, which gain the
// peer's name; a teardown's cause already names it.
func (s *session) cause(w *waiter) error {
	if w.cause == context.DeadlineExceeded || w.cause == context.Canceled {
		return fmt.Errorf("live: pooled request to %s: %w", s.peer.addr, w.cause)
	}
	return w.cause
}

// send stages a one-way frame (no reply expected) on pr's session, to be
// written by by; a session it creates dials by by. A frame staged behind
// the dial is written and recorded with the dial; a one-way frame that
// takes the writer role hands it to drain, so a sender never waits on the
// link.
func (p *pool) send(pr *peer, m *wire.Message, by time.Time) error {
	s, err := p.acquire(pr, by)
	if err != nil {
		return err
	}
	f := *m
	conn, _, _, err := s.register(&f, nil, time.Now())
	if err != nil {
		return err
	}
	if s.stage(&f, by) {
		s.goDrain(true)
	}
	if conn != nil {
		pr.breakerResult(p.n, nil, false)
	}
	return nil
}

// drop forgets s unless a newer session already replaced it.
func (p *pool) drop(s *session) {
	pr := s.peer
	pr.mu.Lock()
	if pr.sess == s {
		pr.sess = nil
		p.n.lifeMu.Lock()
		delete(p.held, s)
		p.sessions.Set(p.nsess.Add(-1))
		p.n.lifeMu.Unlock()
	}
	pr.mu.Unlock()
}

// current snapshots the sessions the peers hold. What a caller decides
// from it is a best effort under concurrent churn, which eviction tolerates
// by design: tearing down a session that was replaced meanwhile is a no-op.
func (p *pool) current() []*session {
	p.n.lifeMu.Lock()
	defer p.n.lifeMu.Unlock()
	out := make([]*session, 0, len(p.held))
	for s := range p.held {
		out = append(out, s)
	}
	return out
}

// trim is the cap's one rule: while the pool holds more sessions than
// MaxSessions it evicts the least-recently-used idle one. It reports
// whether the pool stays over the cap because every session is busy; the
// next session to go idle trims again. Within the cap it costs one atomic
// load. The caller holds no peer's mutex: a teardown takes its peer's.
func (p *pool) trim() (over bool) {
	for p.nsess.Load() > int64(p.cfg.MaxSessions) {
		victim, _ := p.lruIdle()
		if victim == nil {
			return true
		}
		victim.teardown(errEvictedCap) // its drop lowers nsess
	}
	return false
}

// lruIdle returns the least-recently-used idle session and its last use,
// or nil.
func (p *pool) lruIdle() (oldest *session, oldestUse time.Time) {
	for _, s := range p.current() {
		s.wmu.Lock()
		s.mu.Lock()
		idle := s.idle()
		use := s.lastUse
		s.mu.Unlock()
		s.wmu.Unlock()
		if idle && (oldest == nil || use.Before(oldestUse)) {
			oldest, oldestUse = s, use
		}
	}
	return oldest, oldestUse
}

func (p *pool) janitor() {
	defer p.n.wg.Done()
	t := time.NewTicker(max(p.cfg.IdleTimeout/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-p.n.runCtx.Done():
			return
		case now := <-t.C:
			p.evictIdle(now)
			p.trim()
		}
	}
}

// evictIdle evicts every idle session unused for IdleTimeout by now.
func (p *pool) evictIdle(now time.Time) {
	for s, use := p.lruIdle(); s != nil && now.Sub(use) >= p.cfg.IdleTimeout; s, use = p.lruIdle() {
		s.teardown(errEvictedIdle)
	}
}

// sessionCount reports the current number of pooled sessions.
func (p *pool) sessionCount() int { return int(p.nsess.Load()) }
