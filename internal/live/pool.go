package live

// This file is the multiplexed connection pool under the RPC layer: one
// long-lived transport.Conn per peer, shared by every concurrent exchange
// with that peer. A writer goroutine puts every frame that is waiting
// into one write, a reader goroutine demultiplexes replies back to
// waiting callers by sequence number — so an exchange costs a frame, not
// a dial, a burst of exchanges costs one syscall, and many requests are
// in flight on one connection at once. A session dials on its own
// goroutine, then becomes the writer: frames queue behind the dial, and no
// caller waits on one. A caller parks on one channel, its waiter's reply,
// which exactly one of four settles: the reader with the reply, the
// attempt's deadline, the session's teardown or the caller's own context.
// Broken sessions tear down, fail their waiters with retryable errors,
// and are re-dialed by the next attempt, composing with the
// retry/backoff and circuit-breaker machinery in rpc.go. This is the
// only way a node sends a frame: there is no unpooled exchange.
//
// A peer's session hangs off its record in the peer table (peer.go), under
// that record's mutex: acquiring a session for one peer never contends
// with exchanges against another. The MaxSessions cap bounds the sessions
// kept, not the exchanges admitted: a newcomer is always admitted, and one
// rule, trim, sheds the least-recently-used idle session while the pool is
// over the cap — after an admission, after every exchange or write that
// leaves a session idle, and on each janitor tick.

import (
	"context"
	"errors"
	"fmt"
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

// sessionInflight bounds the outbound frames queued to one session's
// writer; enqueues past it wait (backpressure).
const sessionInflight = 128

// errEvictedIdle and errEvictedCap mark the teardown of a session nothing
// was riding: unused for IdleTimeout, or given up for the MaxSessions cap.
// A caller sees one only by losing a race with the eviction, and retries.
var (
	errEvictedIdle = errors.New("live: session evicted: idle")
	errEvictedCap  = errors.New("live: session evicted: pool at its cap")
)

// pool owns at most one session per peer: the sess of its record in the
// peer table.
type pool struct {
	tr  transport.Transport
	cfg PoolConfig

	// Event and level handles, taken once at construction (nil without a
	// registry, which counts nothing).
	dials, broken, orphans      *metrics.Counter
	evictionsCap, evictionsIdle *metrics.Counter
	fallbacks                   *metrics.Counter // admissions left over the cap: every session busy
	frames, flushes             *metrics.Counter // frames sent, and the writes that carried them
	sessions, inflight          *metrics.Gauge

	closed atomic.Bool
	nsess  atomic.Int64 // len(held), written under mu, read by trim without it

	// held is every session a peer holds, so the janitor, cap eviction and
	// Close walk the pool's own few sessions, not every address the node
	// has ever tried. mu is taken under a peer's mutex, never around one.
	mu   sync.Mutex
	held map[*session]struct{}

	// oneWayResult feeds a peer's breaker what only the pool sees of a
	// one-way frame: queued on a connected session, or its dial's outcome.
	oneWayResult func(*peer, error)

	life context.Context // bounds every dial and the janitor; Close cancels it
	stop context.CancelFunc
	wg   sync.WaitGroup // janitor + per-session run and read loops
}

func newPool(tr transport.Transport, cfg PoolConfig, oneWayResult func(*peer, error), counters *metrics.Counters, gauges *metrics.Gauges) *pool {
	p := &pool{
		tr:           tr,
		cfg:          cfg.withDefaults(),
		oneWayResult: oneWayResult,

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
	p.life, p.stop = context.WithCancel(context.Background())
	p.wg.Add(1)
	go p.janitor()
	return p
}

// session is one peer's long-lived multiplexed connection.
type session struct {
	p       *pool
	peer    *peer
	writeCh chan *waiter // frames wait here for the writer, the dial first

	mu       sync.Mutex
	conn     transport.Conn // nil until the dial succeeds
	torn     bool
	err      error              // teardown cause, set before done closes
	pending  map[uint32]*waiter // exchanges awaiting a reply, by Seq
	nextSeq  uint32
	inflight int       // exchanges between register and endUse
	oneWay   int       // one-way frames enqueued and not yet written
	lastUse  time.Time // when the latest exchange or one-way frame started

	done chan struct{} // closed by teardown
}

// waiter is one exchange on a session: the frame on its way to the writer
// (a private copy: an abandoned attempt's frame may still sit in the
// queue when the retry re-stamps Seq), the channel its caller parks on,
// and the timer that bounds the attempt. settle is the only send into
// reply, and the first settler wins. A request's waiter is recycled once
// writer and caller have both let go, and only after a reply whose
// deadline was stopped before it fired: any other ending may leave its
// frame queued, a reply on its way or the deadline's settle running.
type waiter struct {
	wire.Message
	oneWay  bool               // no exchange is waiting on it; see session.send
	reply   chan *wire.Message // cap 1: the one settle never blocks
	timer   *time.Timer        // runs expire; stopped while pooled
	settled atomic.Bool
	cause   error        // why a nil reply ended the exchange; set by settle
	holds   atomic.Int32 // 2: the writer's and the caller's
}

var waiterPool = sync.Pool{New: func() interface{} {
	w := &waiter{reply: make(chan *wire.Message, 1)}
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

// wait parks until w is settled, settling it with ctx's error if ctx ends
// first. A caller without a ctx to watch pays a plain receive.
func (w *waiter) wait(ctx context.Context) *wire.Message {
	done := ctx.Done()
	if done == nil {
		return <-w.reply
	}
	select {
	case m := <-w.reply:
		return m
	case <-done:
		w.settle(nil, ctx.Err()) // loses to a settler that came first
		return <-w.reply
	}
}

// release drops one hold; the last returns w to the pool.
func (w *waiter) release() {
	if w.holds.Add(-1) == 0 {
		w.Message = wire.Message{}
		w.settled.Store(false)
		w.cause = nil
		waiterPool.Put(w)
	}
}

// idle reports whether evicting s would lose nothing: it has dialed (a
// session still dialing was made for an exchange about to register on it),
// no exchange awaits a reply and no one-way frame awaits the writer.
// Caller holds s.mu.
func (s *session) idle() bool {
	return !s.torn && s.conn != nil && s.inflight == 0 && s.oneWay == 0
}

// acquire returns pr's session, creating one if absent and starting its
// run, which dials by by. It never waits on a dial. A session it creates
// is admitted whatever the pool holds; trim then sheds back to the cap.
func (p *pool) acquire(pr *peer, by time.Time) (*session, error) {
	pr.mu.Lock()
	if s := pr.sess; s != nil {
		pr.mu.Unlock()
		return s, nil
	}
	s := &session{
		p:       p,
		peer:    pr,
		done:    make(chan struct{}),
		writeCh: make(chan *waiter, sessionInflight),
		pending: make(map[uint32]*waiter),
		lastUse: time.Now(),
	}
	// Close marks closed before it snapshots held, so a session joins held
	// before that snapshot — to be torn down with the rest — or not at
	// all; its run is counted before Close can wait.
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		pr.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.held[s] = struct{}{}
	p.sessions.Set(p.nsess.Add(1))
	p.wg.Add(1)
	p.mu.Unlock()
	pr.sess = s
	pr.mu.Unlock()
	// Not under pr.mu: a victim's teardown takes its own peer's mutex. The
	// newcomer has not started dialing, so it is never the victim.
	if p.trim() {
		p.fallbacks.Inc()
	}
	go s.run(by)
	return s, nil
}

// run dials under the pool's life and by the creating attempt's deadline,
// then starts the reader and becomes the writer. A failed dial tears the
// session down, which a waiting request sees and records; the pool records
// it when only one-way frames were waiting.
func (s *session) run(by time.Time) {
	defer s.p.wg.Done()
	ctx, cancel := context.WithDeadline(s.p.life, by)
	conn, err := s.p.tr.DialContext(ctx, s.peer.addr)
	cancel()
	if err != nil {
		if s.teardown(err) {
			s.p.oneWayResult(s.peer, err)
		}
		return
	}
	s.mu.Lock()
	if s.torn { // pool closed or session evicted while dialing
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conn = conn
	oneWayOnly := s.inflight == 0 && s.oneWay > 0
	s.mu.Unlock()
	s.p.dials.Inc()
	if oneWayOnly {
		s.p.oneWayResult(s.peer, nil)
	}
	s.p.wg.Add(1)
	go s.readLoop()
	s.writeLoop()
}

// writeLoop puts every frame that is waiting into one write.
func (s *session) writeLoop() {
	for {
		select {
		case <-s.done:
			return
		case f := <-s.writeCh:
			frames, oneWay, err := s.writeBurst(f)
			if err != nil {
				s.teardown(fmt.Errorf("live: pooled send to %s: %w", s.peer.addr, err))
				return
			}
			s.p.frames.Add(frames)
			s.p.flushes.Inc()
			if oneWay > 0 {
				s.mu.Lock()
				s.oneWay -= oneWay
				s.mu.Unlock()
				s.p.trim()
			}
		}
	}
}

// writeBurst queues f and every frame behind it, then flushes once. When
// the queue first runs dry it yields the processor before looking again:
// callers made runnable together (a burst of replies just woke them)
// enqueue ahead of the syscall instead of each paying their own. Nothing
// waits on a timer — a lone frame leaves after one yield with nobody else
// to run.
func (s *session) writeBurst(f *waiter) (frames uint64, oneWay int, err error) {
	yielded := false
	for f != nil {
		_, err = s.conn.Queue(&f.Message)
		if f.oneWay {
			oneWay++
		} else {
			f.release()
		}
		if err != nil {
			return
		}
		frames++
		if f = s.waiting(); f == nil && !yielded {
			yielded = true
			runtime.Gosched()
			f = s.waiting()
		}
	}
	return frames, oneWay, s.conn.Flush()
}

// waiting takes the next queued frame, or nil when there is none.
func (s *session) waiting() *waiter {
	select {
	case f := <-s.writeCh:
		return f
	default:
		return nil
	}
}

// readLoop demultiplexes inbound frames to their waiting callers by
// sequence number. Replies nobody is waiting for — a duplicated frame's
// second answer, or the answer to a request already settled otherwise
// (timed out, or its caller gone) — are counted and dropped. Any receive
// error tears the session down: on a real stream a framing error is
// unrecoverable, and a fresh connection is one retry away.
func (s *session) readLoop() {
	defer s.p.wg.Done()
	for {
		m, err := s.conn.Recv()
		if err != nil {
			s.teardown(fmt.Errorf("live: pooled recv from %s: %w", s.peer.addr, err))
			return
		}
		s.mu.Lock()
		w, ok := s.pending[m.Seq]
		if ok {
			delete(s.pending, m.Seq)
		}
		s.mu.Unlock()
		if !ok || !w.settle(m, nil) {
			s.p.orphans.Inc()
		}
	}
}

// teardown closes the session exactly once: every pending waiter is
// settled with err, the conn closes, and the pool forgets the session so
// the next attempt re-dials. It reports whether this call tore a session
// only one-way frames were riding, whose callers will not hear of err.
func (s *session) teardown(err error) (oneWayOnly bool) {
	s.mu.Lock()
	if s.torn {
		s.mu.Unlock()
		return false
	}
	s.torn = true
	s.err = err
	conn := s.conn
	oneWayOnly = s.inflight == 0 && s.oneWay > 0
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, w := range pending {
		w.settle(nil, err)
	}
	close(s.done)
	if conn != nil {
		conn.Close()
	}
	s.p.drop(s)
	switch err {
	case errEvictedIdle:
		s.p.evictionsIdle.Inc()
	case errEvictedCap:
		s.p.evictionsCap.Inc()
	case ErrPoolClosed:
	default:
		s.p.broken.Inc()
	}
	return oneWayOnly
}

// register assigns w the next sequence number and counts it against the
// session: parked for its reply, or as a one-way frame the writer has yet
// to write. start, when the exchange began, becomes the session's
// lastUse. It reports whether the session's dial had succeeded, and fails
// if the session is already torn.
func (s *session) register(w *waiter, start time.Time) (dialed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn {
		return false, s.err
	}
	s.nextSeq++
	w.Seq = s.nextSeq
	s.lastUse = start
	if w.oneWay {
		s.oneWay++
	} else {
		s.pending[w.Seq] = w
		s.inflight++
		s.p.inflight.Add(1)
	}
	return s.conn != nil, nil
}

// abandon ends w's exchange, settled without a reply: it forgets w and
// returns the cause. The deadline and the caller's ctx settle with the
// bare context errors, which gain the peer's name; a teardown's cause
// already names it.
func (s *session) abandon(w *waiter) error {
	w.timer.Stop()
	s.mu.Lock()
	delete(s.pending, w.Seq) // a no-op once teardown has dropped the table
	s.mu.Unlock()
	if w.cause == context.DeadlineExceeded || w.cause == context.Canceled {
		return fmt.Errorf("live: pooled request to %s: %w", s.peer.addr, w.cause)
	}
	return w.cause
}

func (s *session) endUse() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	s.p.inflight.Add(-1)
	s.p.trim()
}

// roundTrip runs one request/response exchange over the shared
// connection, begun at start and bounded by ctx and by the attempt's
// deadline by. A slow reply to another caller cannot block this one: each
// parks on its own waiter.
func (s *session) roundTrip(ctx context.Context, m *wire.Message, start, by time.Time) (*wire.Message, error) {
	w := waiterPool.Get().(*waiter)
	w.Message = *m
	w.holds.Store(2)
	if _, err := s.register(w, start); err != nil {
		return nil, err
	}
	defer s.endUse()
	w.timer.Reset(by.Sub(start))
	var resp *wire.Message
	select {
	case s.writeCh <- w:
		resp = w.wait(ctx)
	default: // a full queue
		select {
		case s.writeCh <- w:
			resp = w.wait(ctx)
		case resp = <-w.reply:
		case <-ctx.Done():
			w.settle(nil, ctx.Err())
			resp = <-w.reply
		}
	}
	if resp == nil {
		return nil, s.abandon(w)
	}
	if w.timer.Stop() {
		w.release()
	}
	return resp, nil
}

// send enqueues a one-way frame (no reply expected) on the shared
// connection. Until the writer has written it the session counts as in
// use: evicting it would drop the frame, and nobody is waiting on a reply
// to notice. A frame queued behind the dial is recorded with its outcome.
func (s *session) send(ctx context.Context, m *wire.Message) error {
	f := &waiter{Message: *m, oneWay: true}
	dialed, err := s.register(f, time.Now())
	if err != nil {
		return err
	}
	select {
	case s.writeCh <- f:
		if dialed {
			s.p.oneWayResult(s.peer, nil)
		}
		return nil
	case <-s.done:
		err = s.err // written before done closed
	case <-ctx.Done():
		err = fmt.Errorf("live: pooled send to %s: %w", s.peer.addr, ctx.Err())
	}
	s.mu.Lock()
	s.oneWay--
	s.mu.Unlock()
	return err
}

// roundTrip acquires pr's session and runs one exchange, begun at start,
// to end by the attempt's deadline.
func (p *pool) roundTrip(ctx context.Context, pr *peer, m *wire.Message, start, by time.Time) (*wire.Message, error) {
	s, err := p.acquire(pr, by)
	if err != nil {
		return nil, err
	}
	return s.roundTrip(ctx, m, start, by)
}

// send acquires pr's session and enqueues a one-way frame; a session it
// creates dials by by.
func (p *pool) send(ctx context.Context, pr *peer, m *wire.Message, by time.Time) error {
	s, err := p.acquire(pr, by)
	if err != nil {
		return err
	}
	return s.send(ctx, m)
}

// drop forgets s unless a newer session already replaced it.
func (p *pool) drop(s *session) {
	pr := s.peer
	pr.mu.Lock()
	if pr.sess == s {
		pr.sess = nil
		p.mu.Lock()
		delete(p.held, s)
		p.sessions.Set(p.nsess.Add(-1))
		p.mu.Unlock()
	}
	pr.mu.Unlock()
}

// current snapshots the sessions the peers hold. What a caller decides
// from it is a best effort under concurrent churn, which eviction tolerates
// by design: tearing down a session that was replaced meanwhile is a no-op.
func (p *pool) current() []*session {
	p.mu.Lock()
	defer p.mu.Unlock()
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
		victim := p.lruIdle()
		if victim == nil {
			return true
		}
		victim.teardown(errEvictedCap) // its drop lowers nsess
	}
	return false
}

// lruIdle returns the least-recently-used idle session, or nil.
func (p *pool) lruIdle() *session {
	var oldest *session
	var oldestUse time.Time
	for _, s := range p.current() {
		s.mu.Lock()
		idle := s.idle()
		use := s.lastUse
		s.mu.Unlock()
		if idle && (oldest == nil || use.Before(oldestUse)) {
			oldest, oldestUse = s, use
		}
	}
	return oldest
}

func (p *pool) janitor() {
	defer p.wg.Done()
	interval := p.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.life.Done():
			return
		case now := <-t.C:
			p.evictIdle(now)
			p.trim()
		}
	}
}

func (p *pool) evictIdle(now time.Time) {
	for _, s := range p.current() {
		s.mu.Lock()
		idle := s.idle() && now.Sub(s.lastUse) >= p.cfg.IdleTimeout
		s.mu.Unlock()
		if idle {
			s.teardown(errEvictedIdle)
		}
	}
}

// sessionCount reports the current number of pooled sessions.
func (p *pool) sessionCount() int { return int(p.nsess.Load()) }

// Close tears down every session, then ends the pool's life — the dials
// still running and the janitor — and waits for all pool goroutines to
// exit. Tearing down first makes a dial cut short by Close fail its
// waiters with ErrPoolClosed, not with the cancellation. Idempotent.
func (p *pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for _, s := range p.current() {
		s.teardown(ErrPoolClosed) // its drop releases the slot
	}
	p.stop()
	p.wg.Wait()
}
