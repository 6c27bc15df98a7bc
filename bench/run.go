package main

// One run of one workload: closed-loop resolve drivers, open-loop movers,
// registrants, the measure phase and the oracle verdicts.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
)

const (
	warmMoves      = 20              // where moves are the primary op
	updateDeadline = 2 * time.Second // an update later than this is undelivered
	pushGrace      = time.Second     // old address admissible this long after a move, for a registered resolver
	traceEvery     = 256             // resolves between two laddered ones
	traceEveryMove = 8               // moves between two laddered ones
)

// owner is a mobile node whose addresses the oracle tracks.
type owner struct {
	id   int
	m    *member
	hist history
}

// target is one key a driver resolves and the node that must answer.
type target struct {
	key   hashkey.Key
	owner *owner
}

type run struct {
	spec  *workload
	rng   *rand.Rand
	c     *cluster
	epoch time.Time

	owners  []*owner
	movers  []*mover
	mover   *mover // the workload's own mover, behind move_* and update_lag_*; nil if nothing moves
	drivers []*driver
	targets []target

	// resolvers are the nodes drivers call into; opNodes are the nodes
	// that run the primary op (the mover on batch_mover, else resolvers).
	resolvers []*member
	opNodes   []*member
	// movesPrimary is set where moves, not resolves, are the primary op.
	movesPrimary bool
	// grace is pushGrace where the resolver relies on LDT pushes, else 0.
	grace time.Duration

	warmOps int        // resolves before measuring, over all drivers
	ladder  ladderKind // what a traced run puts under each resolve

	trace *traceState // nil on untraced runs
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

func (r *run) newOwner(m *member) *owner {
	o := &owner{id: len(r.owners), m: m}
	o.hist.moved(m.node.Addr(), r.now(), r.now())
	r.owners = append(r.owners, o)
	return o
}

// ---- movers and registrants ----

// registrant is a node registered with a mover; a goroutine drains its
// Updates() into got.
type registrant struct {
	m   *member
	mu  sync.Mutex
	got []received
}

func (g *registrant) snapshot() []received {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]received(nil), g.got...)
}

// drain logs every update about subject until the member is stopped.
func (r *run) drain(g *registrant, subject hashkey.Key) {
	g.m.background(func(ctx context.Context) {
		for {
			select {
			case <-ctx.Done():
				return
			case u := <-g.m.node.Updates():
				if u.Key != subject {
					continue
				}
				at := r.now()
				g.mu.Lock()
				g.got = append(g.got, received{addr: u.Addr, at: at})
				g.mu.Unlock()
			}
		}
	})
}

// register makes m a registrant of o: registered, renewing at lease/2,
// draining its updates.
func (r *run) register(ctx context.Context, m *member, o *owner) (*registrant, error) {
	g := &registrant{m: m, got: make([]received, 0, 1024)}
	r.drain(g, o.m.node.Key())
	if err := r.c.keepRegistered(ctx, m, o.m.node.Key()); err != nil {
		return nil, err
	}
	return g, nil
}

// mover moves one owner on a fixed schedule, open loop: a move is due
// when the schedule says so whether or not the previous one is done, and
// its latency counts from the due instant.
type mover struct {
	o      *owner
	period time.Duration
	regs   []*registrant

	moves []move
	lat   windows // due → RebindContext returned
	late  hist    // due → RebindContext invoked: how late the generator ran
	lag   windows // due → a registrant's Updates() yielded it

	undelivered int
}

func (r *run) addMover(o *owner, period time.Duration, regs []*registrant) *mover {
	mv := &mover{o: o, period: period, regs: regs}
	r.movers = append(r.movers, mv)
	return mv
}

// moveOnce rebinds the owner and records the binding. due is the instant
// the move was scheduled for.
func (r *run) moveOnce(ctx context.Context, mv *mover, due int64, ladder bool) move {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	m := move{due: due, start: r.now()}
	if ladder {
		m.err = r.trace.ladderMove(ctx, r, mv, &m)
	} else {
		m.err = mv.o.m.node.RebindContext(ctx, listenAddr)
		m.returned = r.now()
	}
	// Even a failed RebindContext has swapped the listener.
	m.index = mv.o.hist.moved(mv.o.m.node.Addr(), m.start, m.returned)
	return m
}

// schedule runs mv's moves from start until end; the k-th is due at
// start + k·period.
func (r *run) schedule(ctx context.Context, mv *mover, start, end time.Time) {
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * mv.period)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w := windowOf(due.Sub(start), end.Sub(start))
		ladder := r.trace != nil && mv == r.mover && r.movesPrimary && w > 0 && k%traceEveryMove == 0
		m := r.moveOnce(ctx, mv, int64(due.Sub(r.epoch)), ladder)
		mv.moves = append(mv.moves, m)
		mv.lat[w].record(m.returned - m.due)
		mv.late.record(m.start - m.due)
	}
}

// settle waits until every registrant has been told its mover's final
// address, or the update deadline passes.
func (r *run) settle() {
	deadline := time.Now().Add(updateDeadline)
	for _, mv := range r.movers {
		if len(mv.moves) == 0 {
			continue
		}
		final, _ := mv.o.hist.current()
		for _, g := range mv.regs {
			for time.Now().Before(deadline) {
				g.mu.Lock()
				n := len(g.got)
				seen := n > 0 && g.got[n-1].addr == final
				g.mu.Unlock()
				if seen {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// judgeDeliveries fills each mover's update-lag windows and undelivered
// count from what its registrants logged.
func (r *run) judgeDeliveries(start time.Time, dur time.Duration) {
	s := int64(start.Sub(r.epoch))
	for _, mv := range r.movers {
		for _, g := range mv.regs {
			lags := deliveries(&mv.o.hist, mv.moves, g.snapshot(), int64(updateDeadline))
			for i, lag := range lags {
				if lag < 0 {
					mv.undelivered++
					continue
				}
				mv.lag[windowOf(time.Duration(mv.moves[i].due-s), dur)].record(lag)
			}
		}
	}
}

// ---- drivers ----

type opFunc func(context.Context, hashkey.Key) (string, error)

// known is the last answer a driver verified for an owner: while the
// owner's history has not changed, the same answer needs no new check.
type known struct {
	addr string
	ver  uint64
}

// pending is a stretch of consecutive answers one driver could not
// verify on the spot — the address was not the newest in the history —
// judged after the run. All share owner, address and history version.
type pending struct {
	o                   *owner
	addr                string
	ver                 uint64
	n                   uint64
	invFirst, respFirst int64
	invLast             int64
}

// driver is one closed-loop resolver: the next op is sent when the
// previous one has answered.
type driver struct {
	id    int
	node  *live.Node
	op    opFunc
	seq   []uint32 // indexes into run.targets, walked cyclically
	pos   int
	batch int // ops between two clock reads; a latency sample is their mean

	lat      windows
	ops      [nWindows]uint64
	errs     uint64
	firstErr error
	known    []known
	pend     []pending

	kit *kit // rung resources, traced runs only
}

func (r *run) addDriver(m *member, op opFunc, seq []uint32, batch int) {
	r.drivers = append(r.drivers, &driver{
		id:    len(r.drivers),
		node:  m.node,
		op:    op,
		seq:   seq,
		batch: batch,
	})
}

// verify checks one answer. inv is a clock reading no later than the
// op's invocation.
func (d *driver) verify(r *run, t *target, addr string, inv int64) {
	o := t.owner
	k := &d.known[o.id]
	if addr == k.addr && o.hist.version.Load() == k.ver {
		return
	}
	resp := r.now()
	cur, ver := o.hist.current()
	if addr == cur {
		*k = known{addr: addr, ver: ver}
		return
	}
	if n := len(d.pend); n > 0 {
		if p := &d.pend[n-1]; p.o == o && p.addr == addr && p.ver == ver {
			p.n++
			p.invLast = inv
			return
		}
	}
	d.pend = append(d.pend, pending{o: o, addr: addr, ver: ver, n: 1, invFirst: inv, respFirst: resp, invLast: inv})
}

// warm runs n unrecorded ops.
func (d *driver) warm(ctx context.Context, r *run, n int) error {
	for i := 0; i < n; i++ {
		t := d.next(r)
		if _, err := d.op(ctx, t.key); err != nil {
			return fmt.Errorf("warm-up resolve of %v: %w", t.key, err)
		}
	}
	return nil
}

// next returns the driver's next target.
func (d *driver) next(r *run) *target {
	t := &r.targets[d.seq[d.pos]]
	if d.pos++; d.pos == len(d.seq) {
		d.pos = 0
	}
	return t
}

// account books one answered op: an error, or an address to verify. inv
// is a clock reading no later than the op's invocation.
func (d *driver) account(r *run, w int, t *target, addr string, err error, inv int64) {
	d.ops[w]++
	if err != nil {
		if d.errs++; d.firstErr == nil {
			d.firstErr = fmt.Errorf("resolve of %v: %w", t.key, err)
		}
		return
	}
	d.verify(r, t, addr, inv)
}

// measure runs ops from start until end, batch back-to-back ops between
// two clock reads; a latency sample is the batch's mean. Window 0 is
// never laddered, so a traced run carries its own untraced reference; in
// the other windows a laddered op follows every traceEvery ops (every
// batch, where a batch is longer).
func (d *driver) measure(ctx context.Context, r *run, start, end time.Time) {
	d.known = make([]known, len(r.owners))
	sinceLadder := 0 // ops
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		w := windowOf(t0.Sub(start), end.Sub(start))
		if d.kit != nil && w > 0 && sinceLadder >= traceEvery {
			sinceLadder = 0
			t := d.next(r)
			addr, inv, err := r.trace.ladderResolve(ctx, r, d, t)
			d.account(r, w, t, addr, err, inv)
			continue
		}
		inv := int64(t0.Sub(r.epoch))
		for i := 0; i < d.batch; i++ {
			t := d.next(r)
			addr, err := d.op(ctx, t.key)
			d.account(r, w, t, addr, err, inv)
		}
		d.lat[w].record(int64(time.Since(t0)) / int64(d.batch))
		sinceLadder += d.batch
	}
}

// judge settles the driver's pending answers: how many were wrong, how
// many stale within the grace period.
func (d *driver) judge(grace int64) (nWrong, nStale uint64) {
	count := func(v verdict, n uint64) {
		switch v {
		case wrong:
			nWrong += n
		case stale:
			nStale += n
		}
	}
	for _, p := range d.pend {
		// The first answer alone; then the rest together: they were all
		// invoked after the first responded, the last of them at invLast.
		count(p.o.hist.check(p.addr, p.invFirst, p.respFirst, grace), 1)
		if p.n > 1 {
			count(p.o.hist.check(p.addr, p.invLast, p.respFirst, grace), p.n-1)
		}
	}
	return nWrong, nStale
}

// ---- the measure phase ----

// usage is what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	gcPause time.Duration
	maxRSS  int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
		maxRSS:  ru.Maxrss,
	}
}

// phase is what one measure phase observed besides the histograms the
// drivers and movers keep.
type phase struct {
	start      time.Time
	dur        time.Duration
	before     usage
	after      usage
	countersB  map[*member]map[string]uint64
	countersA  map[*member]map[string]uint64
	inflight   hist // pool.inflight on the op nodes, sampled every 10 ms
	goroutines int  // peak, same sampler
}

func (r *run) snapshotCounters() map[*member]map[string]uint64 {
	out := make(map[*member]map[string]uint64, len(r.c.members))
	for _, m := range r.c.members {
		out[m] = m.counters.Snapshot()
	}
	return out
}

// measure runs the measure phase for dur.
func (r *run) measure(ctx context.Context, dur time.Duration) *phase {
	p := &phase{dur: dur}
	runtime.GC() // start every measure phase from the same heap state
	p.countersB = r.snapshotCounters()
	p.before = readUsage()
	p.start = time.Now()
	end := p.start.Add(dur)

	var wg sync.WaitGroup
	for _, mv := range r.movers {
		wg.Add(1)
		go func(mv *mover) {
			defer wg.Done()
			r.schedule(ctx, mv, p.start, end)
		}(mv)
	}
	for _, d := range r.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.measure(ctx, r, p.start, end)
		}(d)
	}
	var sampling atomic.Bool
	sampled := make(chan struct{})
	if r.trace != nil {
		sampling.Store(true)
		go func() {
			defer close(sampled)
			for sampling.Load() {
				var in int64
				for _, m := range r.opNodes {
					in += m.gauges.Get("pool.inflight")
				}
				p.inflight.record(in)
				if g := runtime.NumGoroutine(); g > p.goroutines {
					p.goroutines = g
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	} else {
		close(sampled)
	}
	wg.Wait()
	p.after = readUsage()
	p.countersA = r.snapshotCounters()
	sampling.Store(false)
	<-sampled
	r.settle()
	r.judgeDeliveries(p.start, dur)
	return p
}

// delta sums, over nodes, how much the named counter grew in the phase.
func (p *phase) delta(nodes []*member, name string) uint64 {
	var n uint64
	for _, m := range nodes {
		n += p.countersA[m][name] - p.countersB[m][name]
	}
	return n
}

// warmUp runs the workload's warm-up: warmMoves unscheduled moves where
// moves are the primary op, then warmOps resolves split over the drivers.
func (r *run) warmUp(ctx context.Context) error {
	for i := 0; r.movesPrimary && i < warmMoves; i++ {
		if m := r.moveOnce(ctx, r.mover, r.now(), false); m.err != nil {
			return fmt.Errorf("warm-up move: %w", m.err)
		}
	}
	errs := make(chan error, len(r.drivers))
	for _, d := range r.drivers {
		go func(d *driver) { errs <- d.warm(ctx, r, r.warmOps/len(r.drivers)) }(d)
	}
	var first error
	for range r.drivers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
