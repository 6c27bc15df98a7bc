package main

// The traced run's layer ladder. Every traceEvery-th primary op is run
// inside a span and followed by its rungs: calls into the exported
// functions of the layers below it, for the same key and message, each in
// a span of its own. A rung includes the rungs under it; a layer's self
// time is its span minus its children. All spans are recorded here, around
// the calls, never inside the layers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/ldt"
	"bristle/internal/live"
	"bristle/internal/loccache"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// span is one timed call. parent is the index, within the same op, of
// the span that includes it (-1 for the op itself).
type span struct {
	op         uint32
	name       string
	parent     int8
	start, end int64 // ns on the run's clock
}

// spanBudget bounds a run's preallocated span memory, shared evenly by its
// recorders; spans past a recorder's share are counted and dropped rather
// than grown into mid-run.
const spanBudget = 1 << 18

type recorder struct {
	id      int
	spans   []span
	nextOp  uint32
	dropped int
}

func newRecorder(id, recorders int) *recorder {
	return &recorder{id: id, spans: make([]span, 0, spanBudget/recorders)}
}

// add stores one op's spans.
func (rec *recorder) add(spans []span) {
	if len(rec.spans)+len(spans) > cap(rec.spans) {
		rec.dropped += len(spans)
		return
	}
	rec.nextOp++
	for i := range spans {
		spans[i].op = rec.nextOp
	}
	rec.spans = append(rec.spans, spans...)
}

// traceState is what a traced run owns beyond the cluster: an echo
// listener for the bare-transport rung, a location cache and counter
// registry of its own (configured as a node's are) for the cache and
// metrics rungs, and the recorders.
type traceState struct {
	echo     *echoServer
	cache    *loccache.Cache
	flights  loccache.Group
	counters *metrics.Counters
	ring     []wire.Entry // the stationary nodes

	kits      []*kit
	recorders []*recorder // one per driver, then the mover's
	moveRec   *recorder
	moveCodec codecBuf
	chunk     *wire.Message // the mover's largest per-replica publish batch
	ldtRoot   ldt.Member
	ldtRegs   []ldt.Member
}

// kit is one goroutine's rung resources: its own connections, so rungs of
// different drivers do not queue behind each other.
type kit struct {
	codecBuf
	rec   *recorder
	echo  transport.Conn
	raw   map[string]transport.Conn // stationary address → raw conn
	cands []wire.Entry
	rng   *rand.Rand
	seq   uint32
}

// codecBuf is the scratch one goroutine encodes and decodes frames with.
type codecBuf struct {
	frame []byte
	rd    bytes.Reader
}

func (r *run) startTrace() error {
	ts := &traceState{counters: metrics.NewCounters()}
	r.trace = ts
	echo, err := startEchoOn(&transport.TCP{}, listenAddr)
	if err != nil {
		return err
	}
	ts.echo = echo
	ts.cache = loccache.New(loccache.Config{Counters: ts.counters, Gauges: metrics.NewGauges()})
	// Full, so that a fill evicts as it does on a node that scans more keys
	// than its cache holds; the resolve targets are in it for the hit rung.
	for _, k := range genKeys(r.rng, 4096) {
		ts.cache.Put(k, "127.0.0.1:1", time.Hour)
	}
	if r.ladder == ladderHit {
		for _, t := range r.targets {
			ts.cache.Put(t.key, "127.0.0.1:1", time.Hour)
		}
	}
	ts.ring = ringOf(r.resolvers[0].node)
	for _, d := range r.drivers {
		rec := newRecorder(d.id, len(r.drivers)+1)
		ts.recorders = append(ts.recorders, rec)
		if d.kit, err = ts.newKit(rec, r.rng.Int63()); err != nil {
			return err
		}
	}
	ts.moveRec = newRecorder(len(r.drivers), len(r.drivers)+1)
	ts.recorders = append(ts.recorders, ts.moveRec)
	if r.movesPrimary {
		node := r.mover.o.m.node
		ts.chunk = largestChunk(ts.ring, node)
		ts.ldtRoot = ldt.Member{ID: 0, Capacity: nodeCapacity}
		for i, e := range node.Registry() {
			ts.ldtRegs = append(ts.ldtRegs, ldt.Member{ID: int32(i + 1), Capacity: e.Capacity})
		}
	}
	return nil
}

func (ts *traceState) newKit(rec *recorder, seed int64) (*kit, error) {
	k := &kit{rec: rec, raw: make(map[string]transport.Conn), rng: rand.New(rand.NewSource(seed))}
	ts.kits = append(ts.kits, k) // closed with the trace state, however far the dials below get
	tcp := &transport.TCP{}
	var err error
	if k.echo, err = tcp.Dial(ts.echo.addr()); err != nil {
		return nil, err
	}
	for _, e := range ts.ring {
		if k.raw[e.Addr], err = tcp.Dial(e.Addr); err != nil {
			return nil, err
		}
	}
	k.cands = make([]wire.Entry, len(ts.ring))
	return k, nil
}

func (k *kit) close() {
	if k.echo != nil {
		k.echo.Close()
	}
	for _, c := range k.raw {
		if c != nil {
			c.Close()
		}
	}
}

func (ts *traceState) close() {
	for _, k := range ts.kits {
		k.close()
	}
	if ts.echo != nil {
		ts.echo.close()
	}
}

// largestChunk builds the biggest TPublishBatch the node sends on a move:
// its records grouped by owner replica, as PublishContext groups them.
func largestChunk(ring []wire.Entry, n *live.Node) *wire.Message {
	self := n.SelfEntry()
	keys := append([]hashkey.Key{self.Key}, n.OwnedKeys()...)
	groups := make(map[string][]wire.Entry)
	cands := make([]wire.Entry, len(ring))
	for _, k := range keys {
		copy(cands, ring)
		for _, o := range live.SelectReplicas(cands, k, 2, 0) {
			groups[o.Addr] = append(groups[o.Addr], wire.Entry{Key: k, Addr: self.Addr, TTLMilli: self.TTLMilli, Epoch: self.Epoch})
		}
	}
	var best []wire.Entry
	for _, g := range groups {
		if len(g) > len(best) {
			best = g
		}
	}
	if len(best) > 8192 { // live's publishBatchMax
		best = best[:8192]
	}
	return &wire.Message{Type: wire.TPublishBatch, Self: self, Entries: best}
}

// ---- rung bodies ----

// codec encodes m into a frame and decodes it back: the wire work of one
// hop.
func (b *codecBuf) codec(m *wire.Message) error {
	frame, err := wire.AppendFrame(b.frame[:0], m)
	if err != nil {
		return err
	}
	b.frame = frame
	b.rd.Reset(frame)
	got, err := wire.Decode(&b.rd)
	if err != nil {
		return err
	}
	wire.PutMessage(got)
	return nil
}

// exchange sends m on c and waits for the frame that answers it.
func exchange(c transport.Conn, m *wire.Message) (*wire.Message, error) {
	if err := c.Send(m); err != nil {
		return nil, err
	}
	return c.Recv()
}

// owner returns the raw conn to key's first replica.
func (k *kit) ownerConn(ring []wire.Entry, key hashkey.Key) transport.Conn {
	copy(k.cands, ring)
	return k.raw[live.SelectReplicas(k.cands, key, 2, 0)[0].Addr]
}

// discoverRungs runs the rungs under a DiscoverContext of key, as
// children of span parent, appending to spans: serve (a raw conn to the
// owning stationary: accept, decode, dispatch, store read, reply — no
// client pool), transport (the same frame to an echo listener) and wire
// (the codec work of that echo: two hops).
func (ts *traceState) discoverRungs(r *run, k *kit, key hashkey.Key, parent int8, spans []span) ([]span, error) {
	k.seq++
	req := &wire.Message{Type: wire.TDiscover, Key: key, Seq: k.seq}
	conn := k.ownerConn(ts.ring, key)

	serve := span{name: "live.serve", parent: parent, start: r.now()}
	resp, err := exchange(conn, req)
	serve.end = r.now()
	if err != nil {
		return spans, fmt.Errorf("serve rung: %w", err)
	}
	if resp.Type != wire.TDiscoverResp || resp.Seq != req.Seq {
		return spans, fmt.Errorf("serve rung: unexpected reply %v seq %d", resp.Type, resp.Seq)
	}
	wire.PutMessage(resp)
	spans = append(spans, serve)
	serveIdx := int8(len(spans) - 1)

	tcp := span{name: "transport.tcp", parent: serveIdx, start: r.now()}
	back, err := exchange(k.echo, req)
	tcp.end = r.now()
	if err != nil {
		return spans, fmt.Errorf("transport rung: %w", err)
	}
	wire.PutMessage(back)
	spans = append(spans, tcp)

	w := span{name: "wire", parent: serveIdx + 1, start: r.now()}
	err = k.codec(req)
	if err == nil {
		err = k.codec(req)
	}
	w.end = r.now()
	if err != nil {
		return spans, fmt.Errorf("wire rung: %w", err)
	}
	return append(spans, w), nil
}

// cacheRungs runs the location-cache work of one resolve on the bench's
// own cache, and under it the counter increments that work made.
func (ts *traceState) cacheRungs(ctx context.Context, r *run, k *kit, kind cacheKind, key hashkey.Key, parent int8, spans []span) []span {
	fresh := hashkey.Random(k.rng)
	if kind == cacheHit {
		// The node's own entry is hot in the CPU's caches; touch the
		// bench's once, untimed, so the rung is too.
		ts.cache.Lookup(key)
		ts.counters.Inc("loccache.hit")
	}
	c := span{name: "loccache", parent: parent, start: r.now()}
	var incs []string
	switch kind {
	case cacheHit:
		ts.cache.Lookup(key)
		incs = []string{"loccache.lookups", "loccache.hit"}
	case cacheMissFill:
		ts.cache.Lookup(fresh)
		_, _, _ = ts.flights.Do(ctx, fresh, func() (string, error) {
			ts.cache.Lookup(fresh) // flightDiscover's double check
			return "", nil
		})
		ts.cache.PutEpoch(fresh, "127.0.0.1:1", leaseTTL, 1)
		incs = []string{"loccache.lookups", "loccache.miss", "loccache.lookups", "loccache.miss", "resolve.discoveries", "loccache.evicted"}
	case cacheFill:
		ts.cache.PutEpoch(fresh, "127.0.0.1:1", leaseTTL, 1)
		incs = []string{"loccache.evicted"}
	}
	c.end = r.now()
	spans = append(spans, c)
	m := span{name: "metrics", parent: int8(len(spans) - 1), start: r.now()}
	for _, name := range incs {
		ts.counters.Inc(name)
	}
	m.end = r.now()
	return append(spans, m)
}

// ladderKind says what lies under a workload's resolve op.
type ladderKind int

const (
	ladderCold     ladderKind = iota // ResolveContext that misses: cache, singleflight, discover and below
	ladderHit                        // ResolveContext answered by the cache: nothing under it but the cache
	ladderDiscover                   // DiscoverContext: serve and below, then the cache write-through
)

type cacheKind int

const (
	cacheHit      cacheKind = iota // Lookup of a fresh entry
	cacheMissFill                  // Lookup miss, singleflight, fill that evicts
	cacheFill                      // DiscoverContext's write-through
)

// ladderResolve runs d's next op inside a span, then its rungs. It
// returns the op's answer and its invocation instant; its latency is in
// the span, not in the driver's histograms.
func (ts *traceState) ladderResolve(ctx context.Context, r *run, d *driver, t *target) (addr string, inv int64, err error) {
	k := d.kit
	var buf [8]span
	spans := buf[:0]

	top := span{name: "live.resolve", parent: -1, start: r.now()}
	if r.ladder == ladderDiscover {
		top.name = "live.discover"
	}
	addr, err = d.op(ctx, t.key)
	top.end = r.now()
	spans = append(spans, top)
	if err != nil {
		return addr, top.start, err
	}

	var rungErr error
	switch r.ladder {
	case ladderHit:
		spans = ts.cacheRungs(ctx, r, k, cacheHit, t.key, 0, spans)
	case ladderDiscover:
		spans, rungErr = ts.discoverRungs(r, k, t.key, 0, spans)
		spans = ts.cacheRungs(ctx, r, k, cacheFill, t.key, 0, spans)
	case ladderCold:
		disc := span{name: "live.discover", parent: 0, start: r.now()}
		_, rungErr = d.node.DiscoverContext(ctx, t.key)
		disc.end = r.now()
		spans = append(spans, disc)
		if rungErr == nil {
			spans, rungErr = ts.discoverRungs(r, k, t.key, 1, spans)
		}
		spans = ts.cacheRungs(ctx, r, k, cacheMissFill, t.key, 0, spans)
	}
	if rungErr != nil {
		// A rung that fails says the ladder is broken, not the system:
		// report it as the op's error so the run cannot pass unnoticed.
		return addr, top.start, rungErr
	}
	k.rec.add(spans)
	return addr, top.start, nil
}

// ladderMove runs one move of mv inside a span, then PublishContext and
// UpdateRegistryContext alone — what remains of the move without them is
// the listener swap, old-connection teardown and peer re-dial — and under
// those the codec work of the largest publish batch and the LDT build.
func (ts *traceState) ladderMove(ctx context.Context, r *run, mv *mover, m *move) error {
	node := mv.o.m.node
	var buf [8]span
	spans := buf[:0]

	top := span{name: "live.rebind", parent: -1, start: r.now()}
	err := node.RebindContext(ctx, listenAddr)
	top.end = r.now()
	m.returned = top.end
	spans = append(spans, top)
	if err != nil {
		return err
	}

	pub := span{name: "live.publish", parent: 0, start: r.now()}
	err = node.PublishContext(ctx)
	pub.end = r.now()
	spans = append(spans, pub)
	if err != nil {
		return fmt.Errorf("publish rung: %w", err)
	}
	w := span{name: "wire", parent: 1, start: r.now()}
	err = ts.moveCodec.codec(ts.chunk)
	w.end = r.now()
	spans = append(spans, w)
	if err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}

	upd := span{name: "live.update_registry", parent: 0, start: r.now()}
	err = node.UpdateRegistryContext(ctx)
	upd.end = r.now()
	spans = append(spans, upd)
	if err != nil {
		return fmt.Errorf("update-registry rung: %w", err)
	}
	l := span{name: "ldt", parent: 3, start: r.now()}
	_, err = ldt.Build(ts.ldtRoot, ts.ldtRegs, ldt.Params{UnitCost: 1})
	l.end = r.now()
	spans = append(spans, l)
	if err != nil {
		return fmt.Errorf("ldt rung: %w", err)
	}
	ts.moveRec.add(spans)
	return nil
}

// ---- echo listener ----

// echoServer answers every frame with the same frame: the transport alone,
// under the same framing as a node's listener.
type echoServer struct {
	l  transport.Listener
	mu sync.Mutex
	cs []transport.Conn
	wg sync.WaitGroup
}

func startEchoOn(tr transport.Transport, addr string) (*echoServer, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &echoServer{l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.cs = append(s.cs, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					err = c.Send(m)
					wire.PutMessage(m)
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return s, nil
}

func (s *echoServer) addr() string { return s.l.Addr() }

func (s *echoServer) close() {
	s.l.Close()
	s.mu.Lock()
	for _, c := range s.cs {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ---- analysis and output ----

// rungStat is one rung's durations over the laddered ops of a run.
type rungStat struct {
	name   string
	parent string
	dur    hist
}

// ladderStats folds spans into per-rung duration histograms. Rungs are
// told apart by name and parent name, in first-seen order, so the op
// itself comes first.
func ladderStats(recs []*recorder) []*rungStat {
	var stats []*rungStat
	find := func(name, parent string) *rungStat {
		for _, s := range stats {
			if s.name == name && s.parent == parent {
				return s
			}
		}
		s := &rungStat{name: name, parent: parent}
		stats = append(stats, s)
		return s
	}
	for _, rec := range recs {
		first := 0
		for i, s := range rec.spans {
			if s.op != rec.spans[first].op {
				first = i
			}
			parent := ""
			if s.parent >= 0 {
				parent = rec.spans[first+int(s.parent)].name
			}
			find(s.name, parent).dur.record(s.end - s.start)
		}
	}
	return stats
}

// selfTime is a rung's median minus its children's medians: the rungs
// are the same work run again, not sub-intervals of one call, so the
// subtraction is between medians, not op by op.
func selfTime(stats []*rungStat, s *rungStat) float64 {
	self := s.dur.quantile(0.5)
	for _, c := range stats {
		if c.parent == s.name && c != s {
			self -= c.dur.quantile(0.5)
		}
	}
	return math.Max(self, 0)
}

// writeTrace writes every span as one JSON line.
func writeTrace(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type line struct {
		Driver int    `json:"driver"`
		Op     uint32 `json:"op_id"`
		Span   int    `json:"span"`
		Parent int    `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		first := 0
		for i, s := range rec.spans {
			if i > 0 && s.op != rec.spans[i-1].op {
				first = i
			}
			if err := enc.Encode(line{rec.id, s.op, i - first, int(s.parent), s.name, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return errors.Join(w.Flush(), f.Close())
}
