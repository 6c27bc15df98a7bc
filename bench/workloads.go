package main

// The four workloads. Each builds its own cluster; names and profiles are
// fixed vocabulary (README.md has the table).

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bristle/internal/hashkey"
)

type workload struct {
	name  string
	why   string
	build func(ctx context.Context, r *run) error
}

const (
	chunkKeys    = 10000 // more than the 4096-entry location cache
	serviceKeys  = 256
	drivers      = 2
	faninClients = 2
	faninDepth   = 8 // goroutines per cold_fanin client
	registrants  = 32
)

var workloads = []*workload{
	{
		name:  "chunk_stream",
		why:   "sequential scan of 10000 keys of a moving publisher through a 4096-entry cache: every resolve is miss, singleflight, pool, TCP, serve, store read, fill and evict; latency view of the cold path",
		build: buildChunkStream,
	},
	{
		name:  "cold_fanin",
		why:   "16 closed-loop discovers in flight from 2 clients on uniform keys of a static publisher: capacity view of wire, transport, pool, serve and store read; the cache and counters-per-hit are bypassed",
		build: buildColdFanin,
	},
	{
		name:  "hot_key_storm",
		why:   "2 drivers on one registered resolver, 90 % of resolves on one moving service key and 10 % on 256 warm keys, all cache hits: shard lock, LRU and the counters mutex; the network is bypassed",
		build: buildHotKeyStorm,
	},
	{
		name:  "batch_mover",
		why:   "a node with 10000 owned keys and 32 registrants moves every 50 ms beside one closed-loop reader: publish batch, ingest, LDT build and fan-out; the reader shows an ingest win that costs reads",
		build: buildBatchMover,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func targetsOf(keys []hashkey.Key, o *owner) []target {
	ts := make([]target, len(keys))
	for i, k := range keys {
		ts[i] = target{key: k, owner: o}
	}
	return ts
}

// stride is the sequence first, first+step, ... below n: driver d of D
// walking every D-th key makes the drivers together scan sequentially.
func stride(first, step, n int) []uint32 {
	var s []uint32
	for i := first; i < n; i += step {
		s = append(s, uint32(i))
	}
	return s
}

// uniform is a seeded sequence of length n over [0, keys).
func uniform(rng *rand.Rand, n, keys int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(keys))
	}
	return s
}

func buildChunkStream(ctx context.Context, r *run) error {
	keys := genKeys(r.rng, chunkKeys)
	pub, err := r.c.publisher(ctx, "publisher", keys)
	if err != nil {
		return err
	}
	o := r.newOwner(pub)
	r.mover = r.addMover(o, 2*time.Second, nil)
	cl, err := r.c.client(ctx, "observer", nodeCapacity)
	if err != nil {
		return err
	}
	r.targets = targetsOf(keys, o)
	for d := 0; d < drivers; d++ {
		r.addDriver(cl, cl.node.ResolveContext, stride(d, drivers, len(keys)), 1)
	}
	r.resolvers = []*member{cl}
	r.opNodes = r.resolvers
	r.warmOps = len(keys) // one full pass
	return nil
}

func buildColdFanin(ctx context.Context, r *run) error {
	keys := genKeys(r.rng, chunkKeys)
	pub, err := r.c.publisher(ctx, "publisher", keys)
	if err != nil {
		return err
	}
	o := r.newOwner(pub)
	r.targets = targetsOf(keys, o)
	for c := 0; c < faninClients; c++ {
		cl, err := r.c.client(ctx, fmt.Sprintf("client%d", c), nodeCapacity)
		if err != nil {
			return err
		}
		for g := 0; g < faninDepth; g++ {
			r.addDriver(cl, cl.node.DiscoverContext, uniform(r.rng, 1<<14, len(keys)), 1)
		}
		r.resolvers = append(r.resolvers, cl)
	}
	r.opNodes = r.resolvers
	r.warmOps = 20000
	r.ladder = ladderDiscover
	return nil
}

func buildHotKeyStorm(ctx context.Context, r *run) error {
	// The hot key is the service node's own key: that is the key an LDT
	// push rewrites in a registrant's cache. The warm keys belong to a
	// node that stays put, because a push does not carry owned keys: a
	// cached owned key of a node that moved is served from its old lease.
	svc, err := r.c.publisher(ctx, "service", nil)
	if err != nil {
		return err
	}
	so := r.newOwner(svc)
	warm := genKeys(r.rng, serviceKeys)
	cat, err := r.c.publisher(ctx, "catalog", warm)
	if err != nil {
		return err
	}
	co := r.newOwner(cat)
	res, err := r.c.client(ctx, "resolver", nodeCapacity)
	if err != nil {
		return err
	}
	g, err := r.register(ctx, res, so)
	if err != nil {
		return err
	}
	r.mover = r.addMover(so, 500*time.Millisecond, []*registrant{g})
	r.targets = append([]target{{key: svc.node.Key(), owner: so}}, targetsOf(warm, co)...)
	for d := 0; d < drivers; d++ {
		seq := make([]uint32, 1<<16)
		for i := range seq {
			if r.rng.Intn(10) == 0 {
				seq[i] = uint32(1 + r.rng.Intn(serviceKeys))
			}
		}
		// Two clock reads cost as much as a cache hit, and the drivers take
		// the cache's locks in streaks, so that one hit, or a few dozen, is
		// either uncontended or contended and the median flips between the
		// two from cluster to cluster. A latency sample here is the mean of
		// 1024 hits.
		r.addDriver(res, res.node.ResolveContext, seq, 1024)
	}
	r.resolvers = []*member{res}
	r.opNodes = r.resolvers
	r.grace = pushGrace
	r.warmOps = 1000000
	r.ladder = ladderHit
	return nil
}

func buildBatchMover(ctx context.Context, r *run) error {
	keys := genKeys(r.rng, chunkKeys)
	m, err := r.c.publisher(ctx, "mover", keys)
	if err != nil {
		return err
	}
	o := r.newOwner(m)
	var regs []*registrant
	for i := 0; i < registrants; i++ {
		// Capacities cycle 1, 2, 4, 8 so the LDT has depth.
		c, err := r.c.client(ctx, fmt.Sprintf("registrant%d", i), float64(int(1)<<(i%4)))
		if err != nil {
			return err
		}
		g, err := r.register(ctx, c, o)
		if err != nil {
			return err
		}
		regs = append(regs, g)
	}
	r.mover = r.addMover(o, 50*time.Millisecond, regs)
	cl, err := r.c.client(ctx, "reader", nodeCapacity)
	if err != nil {
		return err
	}
	r.targets = targetsOf(keys, o)
	r.addDriver(cl, cl.node.DiscoverContext, stride(0, 1, len(keys)), 1)
	r.resolvers = []*member{cl}
	r.opNodes = []*member{o.m}
	r.movesPrimary = true
	r.warmOps = 1000
	r.ladder = ladderDiscover
	return nil
}

// boot builds w's cluster: ring, join, gossip to full membership, first
// publish, registrations.
func boot(ctx context.Context, w *workload, seed int64) (*run, error) {
	r := &run{
		spec:  w,
		rng:   rand.New(rand.NewSource(seed)),
		c:     newCluster(seed),
		epoch: time.Now(),
	}
	err := r.c.bootRing(ctx)
	if err == nil {
		err = w.build(ctx, r)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return r, nil
}

// setUp boots w's cluster and warms it up; traced gives it the ladder's
// resources first.
func setUp(ctx context.Context, w *workload, seed int64, traced bool) (*run, error) {
	r, err := boot(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	if traced {
		err = r.startTrace()
	}
	if err == nil {
		err = r.warmUp(ctx)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return r, nil
}

func (r *run) close() {
	if r.trace != nil {
		r.trace.close()
	}
	r.c.close()
}
