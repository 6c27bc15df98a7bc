package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/wire"
)

// poisonType is a reserved frame type the Faulty transport uses to model
// in-flight corruption: a receiving Faulty endpoint translates it into a
// wire.ErrBadMagic decode failure, exactly what a corrupted stream would
// produce on TCP. An unwrapped receiver simply drops the unknown type.
const poisonType = wire.MsgType(0xFF)

// FaultConfig parameterizes the Faulty wrapper. All rates are independent
// probabilities in [0, 1], drawn from a per-directed-link PRNG derived
// from Seed — so two runs with the same seed and the same per-link frame
// order inject the same faults.
type FaultConfig struct {
	// Seed roots every per-link fault stream. Same seed → same faults.
	Seed int64
	// Drop is P(an outbound frame vanishes silently).
	Drop float64
	// Duplicate is P(an outbound frame is delivered twice).
	Duplicate float64
	// Corrupt is P(an outbound frame is corrupted in flight: the
	// receiver's Recv fails with wire.ErrBadMagic).
	Corrupt float64
	// RefuseDial is P(a Dial fails immediately with ErrRefused).
	RefuseDial float64
	// DelayMin/DelayMax bound a uniform per-frame injected latency: the
	// frame is held in flight, FIFO per direction, and its sender goes on.
	// DelayMax 0 disables delay.
	DelayMin, DelayMax time.Duration
	// Latency, if set, returns a deterministic per-link latency for each
	// frame on the directed link from → to (endpoint names; to is "" on
	// the accepted/response side of a connection, so a topology-derived
	// function typically charges the full round trip on the forward
	// direction and returns 0 for unknown pairs). It adds to the uniform
	// DelayMin/DelayMax jitter: the two make one hold, held in flight, FIFO
	// per direction. This is how harness scenarios give each node pair a
	// stable "distance" for proximity-aware ordering to discover.
	Latency func(from, to string) time.Duration
	// Counters optionally records every injected fault (fault.drop,
	// fault.delay, fault.duplicate, fault.corrupt, fault.refuse,
	// fault.partition_drop, fault.partition_refuse).
	Counters *metrics.Counters
}

// Faulty wraps any Transport and injects seeded, per-link faults: frame
// drop, delay, duplication, corruption, refused dials, and named
// asymmetric partitions that can be installed and healed at runtime. It
// turns the clean Mem (or TCP) transport into a deterministic chaos
// harness for the live protocol stack.
//
// Fault decisions are made per directed link (dialing endpoint →
// listening endpoint), so every node under test must go through its own
// named view from Endpoint. Partitions match endpoint names; unnamed
// peers are identified by their listener address.
type Faulty struct {
	inner Transport
	ctr   atomic.Pointer[faultCounters] // handles into cfg.Counters

	mu         sync.Mutex
	cfg        FaultConfig
	owners     map[string]string // listener addr → endpoint name
	links      map[linkKey]*linkState
	partitions map[string][]partitionRule
}

// faultCounters are the handles of the injected-fault events, taken from
// FaultConfig.Counters whenever a profile is installed (all nil, counting
// nothing, when the profile has no registry).
type faultCounters struct {
	drop, delay, latency, duplicate, corrupt *metrics.Counter
	refuse, partitionDrop, partitionRefuse   *metrics.Counter
}

func newFaultCounters(r *metrics.Counters) *faultCounters {
	return &faultCounters{
		drop:            r.Counter("fault.drop"),
		delay:           r.Counter("fault.delay"),
		latency:         r.Counter("fault.latency"),
		duplicate:       r.Counter("fault.duplicate"),
		corrupt:         r.Counter("fault.corrupt"),
		refuse:          r.Counter("fault.refuse"),
		partitionDrop:   r.Counter("fault.partition_drop"),
		partitionRefuse: r.Counter("fault.partition_refuse"),
	}
}

type linkKey struct{ from, to string }

type partitionRule struct{ from, to map[string]bool }

// linkState carries the seeded PRNG of one directed link.
type linkState struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (ls *linkState) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.rng.Float64() < p
}

func (ls *linkState) delay(min, max time.Duration) time.Duration {
	if max <= 0 || max < min {
		return 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return min + time.Duration(ls.rng.Int63n(int64(max-min)+1))
}

// NewFaulty wraps inner with the given fault profile.
func NewFaulty(inner Transport, cfg FaultConfig) *Faulty {
	f := &Faulty{
		inner:      inner,
		owners:     make(map[string]string),
		links:      make(map[linkKey]*linkState),
		partitions: make(map[string][]partitionRule),
	}
	f.SetConfig(cfg)
	return f
}

// SetConfig swaps the fault profile at runtime (e.g. to start chaos after
// a clean bootstrap). Per-link PRNG states persist across the change.
func (f *Faulty) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.mu.Unlock()
	f.ctr.Store(newFaultCounters(cfg.Counters))
}

// Config returns the current fault profile.
func (f *Faulty) Config() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// Endpoint returns a Transport view bound to a named endpoint. Per-link
// fault streams and partitions are keyed by these names.
func (f *Faulty) Endpoint(name string) Transport {
	return &faultyEndpoint{f: f, name: name}
}

// Partition installs (or extends) a named one-way partition: dials and
// frames from any endpoint in from to any endpoint in to fail until
// Heal(name). Entries match endpoint names, or listener addresses for
// unnamed endpoints. Install both directions — or use PartitionBoth —
// for a full split.
func (f *Faulty) Partition(name string, from, to []string) {
	rule := partitionRule{from: toSet(from), to: toSet(to)}
	f.mu.Lock()
	f.partitions[name] = append(f.partitions[name], rule)
	f.mu.Unlock()
}

// PartitionBoth installs a bidirectional partition between the two groups
// under one name, healed by a single Heal call.
func (f *Faulty) PartitionBoth(name string, a, b []string) {
	f.Partition(name, a, b)
	f.Partition(name, b, a)
}

// Heal removes the named partition; traffic between the groups resumes.
func (f *Faulty) Heal(name string) {
	f.mu.Lock()
	delete(f.partitions, name)
	f.mu.Unlock()
}

// PartitionNames returns the currently installed partitions, sorted — a
// test harness uses it to assert the network really is whole before
// checking global invariants.
func (f *Faulty) PartitionNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.partitions))
	for name := range f.partitions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func toSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func (f *Faulty) partitioned(from, to string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rules := range f.partitions {
		for _, r := range rules {
			if r.from[from] && r.to[to] {
				return true
			}
		}
	}
	return false
}

// linkFor returns the (lazily created) seeded PRNG of one directed link.
func (f *Faulty) linkFor(from, to string) *linkState {
	key := linkKey{from, to}
	f.mu.Lock()
	defer f.mu.Unlock()
	ls, ok := f.links[key]
	if !ok {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s", f.cfg.Seed, from, to)
		ls = &linkState{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		f.links[key] = ls
	}
	return ls
}

// ownerOf maps a dial address to its endpoint name; unknown addresses
// identify themselves (so partitions can name raw addresses too).
func (f *Faulty) ownerOf(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name, ok := f.owners[addr]; ok && name != "" {
		return name
	}
	return addr
}

// --- endpoint ---

type faultyEndpoint struct {
	f    *Faulty
	name string
}

func (e *faultyEndpoint) Listen(addr string) (Listener, error) {
	l, err := e.f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	e.f.mu.Lock()
	e.f.owners[l.Addr()] = e.name
	e.f.mu.Unlock()
	return &faultyListener{f: e.f, name: e.name, inner: l}, nil
}

func (e *faultyEndpoint) Dial(addr string) (Conn, error) {
	return e.DialContext(context.Background(), addr)
}

// DialContext injects the same per-link dial faults as Dial, then dials
// the inner transport with the caller's context (fault injection stays
// on pooled/multiplexed conns exactly as on one-shot ones).
func (e *faultyEndpoint) DialContext(ctx context.Context, addr string) (Conn, error) {
	f := e.f
	to := f.ownerOf(addr)
	if f.partitioned(e.name, to) {
		f.ctr.Load().partitionRefuse.Inc()
		return nil, fmt.Errorf("%w: %s (partitioned)", ErrRefused, addr)
	}
	link := f.linkFor(e.name, to)
	cfg := f.Config()
	if link.chance(cfg.RefuseDial) {
		f.ctr.Load().refuse.Inc()
		return nil, fmt.Errorf("%w: %s (injected)", ErrRefused, addr)
	}
	inner, err := f.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{f: f, from: e.name, to: to, link: link, inner: inner}, nil
}

// --- listener ---

type faultyListener struct {
	f     *Faulty
	name  string
	inner Listener

	mu    sync.Mutex
	conns int
}

func (l *faultyListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	// The dialer's identity is not carried in-band, so the server side of
	// a connection gets its own per-connection fault stream, seeded
	// deterministically from the accept order. Partition rules cannot
	// match this direction on an established connection — like a real
	// asymmetric partition, responses already in flight still arrive —
	// but every *new* exchange re-dials and is blocked at Dial.
	l.mu.Lock()
	l.conns++
	peer := fmt.Sprintf("accepted#%d", l.conns)
	l.mu.Unlock()
	return &faultyConn{f: l.f, from: l.name, to: "", link: l.f.linkFor(l.name, peer), inner: c}, nil
}

func (l *faultyListener) Close() error { return l.inner.Close() }
func (l *faultyListener) Addr() string { return l.inner.Addr() }

// --- conn ---

// faultyConn injects its link's faults into each frame it sends. A
// delayed frame is held in flight on the conn's delay line: a slow link
// delays the frame, not its sender, and writes it under no deadline of
// the sender's. Reads and the sender's own writes honour the deadlines.
type faultyConn struct {
	f        *Faulty
	from, to string // endpoint names; to == "" on the accepted side
	link     *linkState
	inner    Conn

	mu     sync.Mutex  // guards the fields below; taken before inner's lock
	line   []heldFrame // frames in flight, oldest first; dues never decrease
	timer  *time.Timer // lets the due frames out; armed while line is not empty
	closed bool
	wdl    atomic.Pointer[time.Time] // the sender's write deadline
}

// heldFrame copies a frame in flight: its sender recycles the original.
type heldFrame struct {
	m   wire.Message
	due time.Time
}

// Send is Queue and an immediate flush: one fault pipeline serves both.
func (c *faultyConn) Send(m *wire.Message) error {
	if _, err := c.Queue(m); err != nil {
		return err
	}
	return c.Flush()
}

// Flush writes under the sender's deadline, which the delay line's own
// writes leave unset on the inner conn.
func (c *faultyConn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dl := c.wdl.Load(); dl != nil {
		c.inner.SetWriteDeadline(*dl)
	}
	return c.inner.Flush()
}

// SetWriteDeadline also reaches a write in progress, without waiting for
// the lock it holds.
func (c *faultyConn) SetWriteDeadline(t time.Time) error {
	c.wdl.Store(&t)
	return c.inner.SetWriteDeadline(t)
}

func (c *faultyConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }
func (c *faultyConn) Buffered() bool                    { return c.inner.Buffered() }

// Queue decides and counts this frame's faults — drop, delay, corruption,
// duplication, once per frame however the caller batches — and queues
// what survives on the inner conn, or on the delay line when it is held.
// A lost or held frame reports zero pending.
func (c *faultyConn) Queue(m *wire.Message) (int, error) {
	f := c.f
	if c.to != "" && f.partitioned(c.from, c.to) {
		// A black-holed link: the frame is silently lost, the sender
		// cannot tell. Retry layers above discover it via timeout.
		f.ctr.Load().partitionDrop.Inc()
		return 0, nil
	}
	cfg := f.Config()
	if c.link.chance(cfg.Drop) {
		f.ctr.Load().drop.Inc()
		return 0, nil
	}
	hold := c.link.delay(cfg.DelayMin, cfg.DelayMax)
	if hold > 0 {
		f.ctr.Load().delay.Inc()
	}
	if cfg.Latency != nil {
		if d := cfg.Latency(c.from, c.to); d > 0 {
			f.ctr.Load().latency.Inc()
			hold += d
		}
	}
	corrupt := c.link.chance(cfg.Corrupt)
	if corrupt {
		f.ctr.Load().corrupt.Inc()
		m = &wire.Message{Type: poisonType, Seq: m.Seq}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pending, err := c.put(m, hold)
	if err == nil && !corrupt && c.link.chance(cfg.Duplicate) {
		f.ctr.Load().duplicate.Inc()
		return c.put(m, hold)
	}
	return pending, err
}

// put queues m on the inner conn, or holds a copy of it for hold on the
// delay line. A frame that is not delayed still waits behind the frames
// in flight ahead of it, so each direction stays FIFO. Caller holds mu.
func (c *faultyConn) put(m *wire.Message, hold time.Duration) (int, error) {
	if c.closed {
		hold = 0 // Close is letting the line out
	}
	if hold == 0 && len(c.line) == 0 {
		return c.inner.Queue(m)
	}
	h := heldFrame{m: *m, due: time.Now().Add(hold)}
	h.m.Entries, h.m.Pub, h.m.Sig = slices.Clone(m.Entries), slices.Clone(m.Pub), slices.Clone(m.Sig)
	if n := len(c.line); n > 0 && c.line[n-1].due.After(h.due) {
		h.due = c.line[n-1].due
	} else if n == 0 && c.timer == nil {
		c.timer = time.AfterFunc(hold, c.letOut)
	} else if n == 0 {
		c.timer.Reset(hold)
	}
	c.line = append(c.line, h)
	return 0, nil
}

// letOut is the delay line's timer: it writes every due frame — every
// frame, once the conn is closed — in order and in one flush, and re-arms
// for the next. (A failed write is sticky and surfaces at the sender's
// next write.)
func (c *faultyConn) letOut() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now, n := time.Now(), 0
	for n < len(c.line) && (c.closed || !c.line[n].due.After(now)) {
		_, _ = c.inner.Queue(&c.line[n].m)
		n++
	}
	c.inner.SetWriteDeadline(time.Time{})
	_ = c.inner.Flush()
	clear(c.line[:n])
	if c.line = c.line[n:]; len(c.line) > 0 {
		c.timer.Reset(c.line[0].due.Sub(now))
	}
}

func (c *faultyConn) Recv() (*wire.Message, error) {
	m, err := c.inner.Recv()
	if err != nil {
		return nil, err
	}
	if m.Type == poisonType {
		// The frame was corrupted in flight; the framing is unrecoverable,
		// exactly as a real bad-magic stream would present.
		return nil, wire.ErrBadMagic
	}
	return m, nil
}

// Close lets out every frame still in flight, in order, then closes the
// inner conn — as a closing socket still sends what was written to it.
func (c *faultyConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.letOut()
	return c.inner.Close()
}
