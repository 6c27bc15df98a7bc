// Package harness is an in-process cluster fabric for scenario-testing
// the live Bristle stack end to end: it spins up N live.Nodes over a
// seeded fault-injection transport, executes a scripted scenario of
// typed ops — Move, Crash/Restart, Partition/Heal, Publish/Register/
// Resolve bursts — from one PRNG seed, and runs pluggable invariant
// checkers after each step and at quiescence.
//
// Everything observable is derived from Config.Seed: the fault streams
// (per directed link, via transport.Faulty), the gossip partner choices,
// and — for the randomized soak — the op schedule itself (soak.go), so a
// failing run is reproduced by re-running with the printed seed.
//
// The harness models mobility and failure the way the paper does:
//
//   - Move rebinds a mobile node to a fresh attachment point (new
//     address), republishes, and pushes the update down its LDT.
//   - Crash kills a node outright (its address goes dark); Restart
//     reoccupies the same address — a reboot, not a relocation — so the
//     stale membership views other nodes hold become true again, and the
//     records the node held as a replica are simply lost (late binding
//     and lease renewal must recover them).
//   - Partition/Heal install and remove named bidirectional splits on
//     the transport.
//
// Invariants (invariants.go): resolvability, update delivery, counter
// conservation, goroutine-leak-free shutdown.
package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

// Config parameterizes a cluster. The zero value is not useful — at
// least one stationary node is required (location records live in the
// stationary layer).
type Config struct {
	// Seed roots every PRNG in the run: fault streams, gossip partner
	// selection, and (for generated schedules) the ops themselves.
	Seed int64
	// Stationary and Mobile name the cluster members. Names double as
	// transport endpoint names, so partitions match them directly.
	Stationary []string
	Mobile     []string
	// LeaseTTL is every node's lease (published records, registrations,
	// and the resolve cache write-throughs). Zero disables expiry.
	LeaseTTL time.Duration
	// Replication is the per-record replica count (default 2).
	Replication int
	// Faults is the chaos profile switched on after a clean bootstrap.
	// Its Seed and Counters are overridden to the cluster's own.
	Faults transport.FaultConfig
	// Maintain, when non-nil, starts background maintenance on every
	// node (its Rand is re-seeded per node from Seed).
	Maintain *live.MaintainConfig
	// OpTimeout bounds one scenario op (default 30s).
	OpTimeout time.Duration
	// Logf receives harness narration; nil silences it.
	Logf func(format string, args ...interface{})
	// Verified gives every member a deterministic cryptographic identity
	// (derived from the cluster seed and the member name) and makes every
	// node require verified joins: member keys become self-certifying
	// (live.Config.Identity) instead of name hashes.
	Verified bool
	// Fabric switches bootstrap to the production-scale shape: only the
	// stationary core is joined into ring membership and gossiped to full
	// convergence; mobile members boot concurrently (BootWorkers wide),
	// each with one join RPC that hands it the ring, and skip gossip
	// entirely. No frame puts a mobile into membership in either shape;
	// what Fabric saves is cost — one gossip RPC per mobile per round
	// would be 10k RPCs a round at production scale — so per-mobile
	// bootstrap cost is O(1) and a 10k-member cluster boots in seconds.
	// Fabric implies Verified.
	Fabric bool
	// BootWorkers bounds the concurrency of the Fabric mobile bootstrap
	// and of PublishAll (default 128).
	BootWorkers int
	// CheckBudget bounds the pair-probing invariant checkers
	// (resolvability, no-resurrection, update delivery): each samples at
	// most CheckBudget pairs per evaluation, drawn deterministically from
	// the cluster seed, keeping checker cost O(checked) instead of
	// O(cluster²). Zero means exhaustive — the pre-scale behaviour.
	CheckBudget int
}

// member is one cluster slot: the current live.Node occupying it plus
// everything that must survive a crash/restart cycle (the name, the
// address being reoccupied, and the updates the slot has observed).
type member struct {
	name   string
	mobile bool
	ident  *hashkey.Identity // non-nil under Config.Verified; survives restarts

	mu        sync.Mutex
	key       hashkey.Key // the node's ring key, recorded at first boot
	node      *live.Node
	addr      string // last bound address; Restart reoccupies it
	alive     bool
	published bool
	moves     int
	watcher   bool // has ever registered interest; drives lazy drainer revival
	stopMaint func()
	drainStop chan struct{} // nil until the lazy drainer starts
	drainDone chan struct{}
	observed  map[hashkey.Key]string // last pushed address per key, drained from Updates()
	owned     []hashkey.Key          // resource keys the slot owns; re-applied on restart
}

func (m *member) current() (*live.Node, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node, m.alive
}

// Cluster is a running set of live nodes over one Faulty transport.
type Cluster struct {
	cfg      Config
	Net      *transport.Faulty
	Counters *metrics.Counters
	Gauges   *metrics.Gauges

	mu         sync.Mutex
	members    map[string]*member
	names      []string // stable order: stationary then mobile, as configured
	partitions map[string][2][]string
	history    map[hashkey.Key]map[string]int // addr → bind order (1 = first bind); presence = ever bound
	bindSeq    map[hashkey.Key]int            // per-key bind counter feeding history
	watchers   map[string]map[string]bool     // target name → registered watcher names
	rng        *rand.Rand                     // scripted-choice PRNG (gossip partners, op fills)

	baseGoroutines int
	drainers       atomic.Int64 // exact count of live drainUpdates goroutines
	shutdownOnce   sync.Once
	shutdownErr    error
}

// New builds, boots, joins, and gossips the cluster on a clean transport
// until every node holds full membership, then switches cfg.Faults on.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Stationary) == 0 {
		return nil, errors.New("harness: at least one stationary node required")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 30 * time.Second
	}
	if cfg.Fabric {
		cfg.Verified = true // the production shape: every member proves its key
	}
	if cfg.BootWorkers <= 0 {
		// Oversubscribing a small box turns boot concurrency into queueing
		// delay that blows request timeouts, so the default follows the
		// hardware instead of a fixed fan-out.
		cfg.BootWorkers = 16 * runtime.GOMAXPROCS(0)
		if cfg.BootWorkers > 128 {
			cfg.BootWorkers = 128
		}
	}
	c := &Cluster{
		cfg:            cfg,
		Counters:       metrics.NewCounters(),
		Gauges:         metrics.NewGauges(),
		members:        make(map[string]*member),
		partitions:     make(map[string][2][]string),
		history:        make(map[hashkey.Key]map[string]int),
		bindSeq:        make(map[hashkey.Key]int),
		watchers:       make(map[string]map[string]bool),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		baseGoroutines: runtime.NumGoroutine(),
	}
	c.Net = transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: cfg.Seed})

	for _, name := range cfg.Stationary {
		c.addMember(name, false)
	}
	for _, name := range cfg.Mobile {
		c.addMember(name, true)
	}
	if err := c.bootstrap(); err != nil {
		c.Shutdown()
		return nil, err
	}
	if cfg.Maintain != nil {
		for _, name := range c.names {
			c.startMaintenance(c.members[name])
		}
	}
	// Chaos on: from here every frame faces the configured fault profile.
	faults := cfg.Faults
	faults.Seed = cfg.Seed
	faults.Counters = c.Counters
	c.Net.SetConfig(faults)
	return c, nil
}

func (c *Cluster) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("harness: "+format, args...)
	}
}

// opCtxDo returns a context bounding one internal operation. The caller
// never cancels it explicitly; the timeout is the bound.
func (c *Cluster) opCtxDo() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.OpTimeout)
	_ = cancel // bounded by timeout; op completion is the normal exit
	return ctx
}

func (c *Cluster) addMember(name string, mobile bool) {
	m := &member{name: name, mobile: mobile, observed: make(map[hashkey.Key]string)}
	if c.cfg.Verified {
		// Deterministic identity: the same (seed, name) always yields the
		// same keypair, so member keys are stable across replay runs.
		m.ident = hashkey.IdentityFromSeed([]byte(fmt.Sprintf("%d|ident|%s", c.cfg.Seed, name)))
	}
	c.members[name] = m
	c.names = append(c.names, name)
}

// ringNames returns the members that join and gossip with the ring:
// everyone in the classic shape, only the stationary core under Fabric
// (its mobiles join once and never gossip). Either way the ring itself
// holds the stationaries only.
func (c *Cluster) ringNames() []string {
	if !c.cfg.Fabric {
		return c.names
	}
	return c.cfg.Stationary
}

// bootstrap boots and connects the whole cluster on the clean transport.
// Classic shape: every member boots sequentially, joins through the
// first node, and gossips to full convergence. Fabric shape: only the
// stationary core does that; the mobile fleet then boots and joins
// concurrently, each mobile costing one node start plus one join RPC —
// no gossip.
func (c *Cluster) bootstrap() error {
	ring := c.ringNames()
	for _, name := range ring {
		if err := c.boot(name, ""); err != nil {
			return err
		}
	}
	boot := c.members[ring[0]]
	for _, name := range ring[1:] {
		m := c.members[name]
		if err := m.node.JoinViaContext(c.opCtxDo(), boot.node.Addr()); err != nil {
			return fmt.Errorf("harness: join %s: %w", name, err)
		}
	}
	if err := c.gossipUntilFull(); err != nil {
		return err
	}
	if !c.cfg.Fabric {
		return nil
	}
	return c.bootFabricMobiles()
}

// bootFabricMobiles boots the mobile fleet BootWorkers wide. Each mobile
// joins through a stationary seed chosen round-robin, spreading
// admission load across the core.
func (c *Cluster) bootFabricMobiles() error {
	seeds := make([]string, len(c.cfg.Stationary))
	for i, s := range c.cfg.Stationary {
		seeds[i] = c.members[s].node.Addr()
	}
	work := make(chan int)
	errs := make(chan error, len(c.cfg.Mobile))
	var wg sync.WaitGroup
	workers := c.cfg.BootWorkers
	if workers > len(c.cfg.Mobile) {
		workers = len(c.cfg.Mobile)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				name := c.cfg.Mobile[i]
				if err := c.boot(name, ""); err != nil {
					errs <- err
					continue
				}
				m := c.members[name]
				if err := m.node.JoinViaContext(c.opCtxDo(), seeds[i%len(seeds)]); err != nil {
					errs <- fmt.Errorf("harness: join %s: %w", name, err)
				}
			}
		}()
	}
	for i := range c.cfg.Mobile {
		work <- i
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel drained empty
}

// suspicionCooldown is how long a member's tripped breaker fails fast
// before it admits a probe. The soak generator settles for longer than
// this after a heal, so the next op probes instead of failing fast.
const suspicionCooldown = 150 * time.Millisecond

// nodeOptions mirrors the aggressive-but-bounded resilience settings the
// chaos suites converged on: short per-attempt deadlines, several
// jittered retries, a breaker that trips (and probes) fast.
func (c *Cluster) nodeOptions(m *member) []live.Option {
	opts := []live.Option{
		live.WithCapacity(4),
		live.WithReplication(c.cfg.Replication),
		live.WithLease(c.cfg.LeaseTTL),
		live.WithRequestTimeout(250 * time.Millisecond),
		live.WithRetryBudget(6, 5*time.Millisecond, 50*time.Millisecond, 0),
		live.WithSuspicion(3, suspicionCooldown),
		live.WithCounters(c.Counters),
		live.WithGauges(c.Gauges),
	}
	if m.mobile {
		opts = append(opts, live.WithMobile())
	}
	if m.ident != nil {
		opts = append(opts, live.WithIdentity(m.ident), live.WithVerifiedJoins())
	}
	if c.cfg.Fabric && m.mobile {
		// At rest a fabric mobile keeps no connection: at production scale
		// the per-mobile steady-state cost must stay O(1), so the pool
		// keeps one session — its few record owners take turns on it, or
		// ride a short-lived one over the cap — and drops that one after a
		// second unused. Their request timeout is boot-scale, not
		// chaos-scale: thousands of concurrent admissions queue on real
		// hardware, and a 250ms deadline measures that queue, not the peer.
		opts = append(opts,
			live.WithPool(live.PoolConfig{MaxSessions: 1, IdleTimeout: time.Second}),
			live.WithRequestTimeout(2*time.Second))
	}
	return opts
}

// boot constructs and starts m's live node at listenAddr ("" allocates).
// Caller ensures the slot is not alive. The update drainer is NOT
// started here: drainers are lazy (ensureDrainer), attached only to
// members that register interest — at production scale a 10k-mobile
// fleet must not cost 10k idle goroutines for update streams nobody
// reads (the node side tolerates an undrained channel: handleUpdate's
// send is non-blocking and counts updates.dropped).
func (c *Cluster) boot(name, listenAddr string) error {
	m := c.members[name]
	nd, err := live.New(name, c.Net.Endpoint(name), c.nodeOptions(m)...)
	if err != nil {
		return fmt.Errorf("harness: build %s: %w", name, err)
	}
	if err := nd.Start(listenAddr); err != nil {
		return fmt.Errorf("harness: start %s: %v", name, err)
	}
	m.mu.Lock()
	m.key = nd.Key()
	m.node = nd
	m.addr = nd.Addr()
	m.alive = true
	wasWatcher := m.watcher
	owned := append([]hashkey.Key(nil), m.owned...)
	m.mu.Unlock()
	// Ownership survives a reboot: the machine still hosts its resources,
	// it just has to republish their records (Restart does, via Publish).
	if len(owned) > 0 {
		nd.OwnKeys(owned...)
	}
	c.recordAddr(nd.Key(), nd.Addr())
	if wasWatcher {
		// A watcher's drainer survives the machine in spirit: the reboot
		// revives it, so pushed updates keep landing in observed.
		c.ensureDrainer(m)
	}
	return nil
}

// ensureDrainer starts m's update drainer if the member is alive and not
// already draining. The alive check and the drain-field publication
// happen under one critical section — the lifecycle guarantee that a
// drainer can never start against a node Crash has already begun tearing
// down, which is how a crash-restart cycle under heavy fan-out used to
// leak the goroutine (the old unconditional start raced the teardown).
// Every start increments c.drainers; every exit decrements it, so the
// leak invariant can demand an exact zero.
func (c *Cluster) ensureDrainer(m *member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.alive || m.drainStop != nil {
		return
	}
	m.drainStop = make(chan struct{})
	m.drainDone = make(chan struct{})
	c.drainers.Add(1)
	go c.drainUpdates(m, m.node, m.drainStop, m.drainDone)
}

// drainUpdates consumes a node's update channel into the member's
// observed map, so the update-delivery invariant can ask "what is the
// last address this slot was told about key K?".
func (c *Cluster) drainUpdates(m *member, nd *live.Node, stop <-chan struct{}, done chan<- struct{}) {
	defer func() {
		c.drainers.Add(-1) // before done: Crash's wait on done then sees the count
		close(done)
	}()
	for {
		select {
		case <-stop:
			return
		case up := <-nd.Updates():
			m.mu.Lock()
			m.observed[up.Key] = up.Addr
			m.mu.Unlock()
		}
	}
}

// ActiveDrainers returns the number of live drainUpdates goroutines —
// the exact book the tightened goroutine-leak invariant balances.
func (c *Cluster) ActiveDrainers() int { return int(c.drainers.Load()) }

// startMaintenance launches background maintenance on m, re-seeding its
// PRNG deterministically from the cluster seed and the member name.
func (c *Cluster) startMaintenance(m *member) {
	mc := *c.cfg.Maintain
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|maint|%s|%d", c.cfg.Seed, m.name, m.moves)
	mc.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
	m.mu.Lock()
	m.stopMaint = m.node.StartMaintenance(mc)
	m.mu.Unlock()
}

// gossipUntilFull runs anti-entropy rounds until every ring member knows
// every stationary — the ring never holds a mobile, though classic-shape
// mobiles join and gossip — bounded at 16 rounds. Fabric mobiles take no
// part.
func (c *Cluster) gossipUntilFull() error {
	ring := c.ringNames()
	want := len(c.cfg.Stationary)
	for round := 0; round < 16; round++ {
		full := true
		for _, name := range ring {
			m := c.members[name]
			if _, err := m.node.GossipOnce(c.rng); err != nil {
				return fmt.Errorf("harness: bootstrap gossip %s: %w", name, err)
			}
			if len(m.node.KnownPeers()) != want {
				full = false
			}
		}
		if full {
			return nil
		}
	}
	return errors.New("harness: membership never converged during bootstrap")
}

// recordAddr records addr as the newest binding for key, stamping it
// with the key's next bind-order number. Re-binding a known address (a
// Restart reoccupying its machine) renews its order: the checkers ask
// "how recent is this answer", not "when was it first seen".
func (c *Cluster) recordAddr(key hashkey.Key, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.history[key]
	if !ok {
		set = make(map[string]int)
		c.history[key] = set
	}
	c.bindSeq[key]++
	set[addr] = c.bindSeq[key]
}

// recordBindings records m's current address for its ring key and every
// key it owns — the post-publish/post-move bookkeeping that keeps
// EverBound and BindOrder truthful for batched multi-record publishes.
func (c *Cluster) recordBindings(m *member, nd *live.Node) {
	c.recordAddr(nd.Key(), nd.Addr())
	m.mu.Lock()
	owned := append([]hashkey.Key(nil), m.owned...)
	m.mu.Unlock()
	for _, k := range owned {
		c.recordAddr(k, nd.Addr())
	}
}

// --- accessors ---

// Seed returns the seed the whole run derives from.
func (c *Cluster) Seed() int64 { return c.cfg.Seed }

// Node returns name's current live node (nil for unknown names). The
// node may be closed if the member has crashed — check Alive.
func (c *Cluster) Node(name string) *live.Node {
	m := c.members[name]
	if m == nil {
		return nil
	}
	nd, _ := m.current()
	return nd
}

// Alive reports whether name is currently running.
func (c *Cluster) Alive(name string) bool {
	m := c.members[name]
	if m == nil {
		return false
	}
	_, alive := m.current()
	return alive
}

// Addr returns name's current address ("" when crashed or unknown).
func (c *Cluster) Addr(name string) string {
	nd := c.Node(name)
	if nd == nil || !c.Alive(name) {
		return ""
	}
	return nd.Addr()
}

// Key returns name's ring key (stable across crash/restart/move). Under
// Config.Verified this is the member's self-certifying identity key, not
// a name hash, so it is read from the slot rather than recomputed.
func (c *Cluster) Key(name string) hashkey.Key {
	m := c.members[name]
	if m == nil {
		return hashkey.FromName(name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.key
}

// Names returns every member name in configured order.
func (c *Cluster) Names() []string { return append([]string(nil), c.names...) }

// LiveNames returns the currently running members in configured order.
func (c *Cluster) LiveNames() []string {
	var out []string
	for _, name := range c.names {
		if c.Alive(name) {
			out = append(out, name)
		}
	}
	return out
}

// Mobile reports whether name was configured as a mobile node.
func (c *Cluster) Mobile(name string) bool {
	m := c.members[name]
	return m != nil && m.mobile
}

// Moves reports how many times name has moved (Move ops applied).
func (c *Cluster) Moves(name string) int {
	m := c.members[name]
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.moves
}

// Published reports whether name has published its location at least
// once (and so is expected to be resolvable while alive).
func (c *Cluster) Published(name string) bool {
	m := c.members[name]
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.published
}

// Owned returns the resource keys name owns (a copy, in the order they
// were added).
func (c *Cluster) Owned(name string) []hashkey.Key {
	m := c.members[name]
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]hashkey.Key(nil), m.owned...)
}

// EverBound reports whether addr was ever a valid address for key — the
// resolvability invariant uses it to tell "stale within lease" (allowed
// transiently) from "never correct" (an immediate failure).
func (c *Cluster) EverBound(key hashkey.Key, addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.history[key][addr]
	return ok
}

// BindOrder returns addr's position in key's bind history (1 = first
// bind, higher = more recent) and whether addr was ever bound at all.
// The no-resurrection invariant compares these orders: once a node has
// learned bind #n it must never be walked back to #m < n.
func (c *Cluster) BindOrder(key hashkey.Key, addr string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq, ok := c.history[key][addr]
	return seq, ok
}

// Observed returns the last address watcher was told target moved to
// through an LDT push ("" when no push arrived yet).
func (c *Cluster) Observed(watcher, target string) string {
	m := c.members[watcher]
	if m == nil {
		return ""
	}
	key := c.Key(target)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observed[key]
}

// Watchers returns the names registered as interested in target, sorted.
func (c *Cluster) Watchers(target string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for w := range c.watchers[target] {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// ActivePartitions returns the names of partitions installed through the
// cluster and not yet healed, sorted.
func (c *Cluster) ActivePartitions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name := range c.partitions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// --- cluster actions (the ops in scenario.go call these) ---

// Publish pushes name's location to its key's replicas.
func (c *Cluster) Publish(name string) error {
	m := c.members[name]
	if m == nil {
		return fmt.Errorf("harness: publish: unknown node %s", name)
	}
	nd, alive := m.current()
	if !alive {
		return fmt.Errorf("harness: publish: %s is crashed", name)
	}
	if err := nd.PublishContext(c.opCtxDo()); err != nil {
		return fmt.Errorf("harness: publish %s: %w", name, err)
	}
	m.mu.Lock()
	m.published = true
	m.mu.Unlock()
	c.recordBindings(m, nd)
	return nil
}

// PublishAll publishes every live mobile member concurrently,
// BootWorkers wide — the production-scale prologue (10k sequential
// publishes would serialize ~10k RPC round trips). Failures are
// tolerated per member and the first one is returned after the sweep;
// under a fault profile the resolvability invariant is the real arbiter.
func (c *Cluster) PublishAll() error {
	var names []string
	for _, name := range c.names {
		m := c.members[name]
		if !m.mobile {
			continue
		}
		if _, alive := m.current(); alive {
			names = append(names, name)
		}
	}
	work := make(chan string)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	workers := c.cfg.BootWorkers
	if workers > len(names) {
		workers = len(names)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				if err := c.Publish(name); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, name := range names {
		work <- name
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs
}

// samplePairs deterministically samples up to budget of the n×m index
// pairs (i < n outer, j < m inner), seeded from the cluster seed and a
// per-checker label so different checkers draw different pairs but every
// replay of one seed draws the same ones. budget <= 0, or a budget
// covering everything, yields the exhaustive enumeration.
func (c *Cluster) samplePairs(label string, n, m, budget int) [][2]int {
	total := n * m
	if total == 0 {
		return nil
	}
	if budget <= 0 || budget >= total {
		out := make([][2]int, 0, total)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|check|%s", c.cfg.Seed, label)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	seen := make(map[int]bool, budget)
	out := make([][2]int, 0, budget)
	for len(out) < budget {
		p := rng.Intn(total)
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, [2]int{p / m, p % m})
	}
	return out
}

// CheckBudget exposes the configured invariant sampling budget (0 =
// exhaustive) to checkers.
func (c *Cluster) CheckBudget() int { return c.cfg.CheckBudget }

// OwnKeys adds resource keys to name's owned set: from the next Publish
// or Move on, the node's batched publish carries one record per owned
// key alongside its own, all bound to its current address. Ownership is
// slot state — it survives crash/restart.
func (c *Cluster) OwnKeys(name string, keys ...hashkey.Key) error {
	m := c.members[name]
	if m == nil {
		return fmt.Errorf("harness: own: unknown node %s", name)
	}
	m.mu.Lock()
	m.owned = append(m.owned, keys...)
	nd, alive := m.node, m.alive
	m.mu.Unlock()
	if alive {
		nd.OwnKeys(keys...)
	}
	return nil
}

// Move rebinds a mobile member to a fresh attachment point,
// republishing and pushing the update through its LDT.
func (c *Cluster) Move(name string) error {
	m := c.members[name]
	if m == nil {
		return fmt.Errorf("harness: move: unknown node %s", name)
	}
	nd, alive := m.current()
	if !alive {
		return fmt.Errorf("harness: move: %s is crashed", name)
	}
	err := nd.RebindContext(c.opCtxDo(), "")
	// The listener moved even when the republish failed: record the new
	// address either way so the history stays truthful.
	m.mu.Lock()
	m.addr = nd.Addr()
	m.moves++
	if err == nil {
		m.published = true
	}
	m.mu.Unlock()
	c.recordBindings(m, nd)
	if err != nil {
		return fmt.Errorf("harness: move %s: %w", name, err)
	}
	c.logf("%s moved to %s", name, nd.Addr())
	return nil
}

// Crash kills name outright: maintenance stops, the update drainer
// stops, and the node closes — its address goes dark until Restart.
func (c *Cluster) Crash(name string) error {
	m := c.members[name]
	if m == nil {
		return fmt.Errorf("harness: crash: unknown node %s", name)
	}
	m.mu.Lock()
	if !m.alive {
		m.mu.Unlock()
		return fmt.Errorf("harness: crash: %s already crashed", name)
	}
	m.alive = false
	nd := m.node
	stopMaint := m.stopMaint
	m.stopMaint = nil
	drainStop, drainDone := m.drainStop, m.drainDone
	m.drainStop, m.drainDone = nil, nil
	m.mu.Unlock()
	if stopMaint != nil {
		stopMaint()
	}
	if drainStop != nil {
		close(drainStop)
		<-drainDone
	}
	if err := nd.Close(); err != nil {
		return fmt.Errorf("harness: crash %s: %w", name, err)
	}
	c.logf("%s crashed (was %s)", name, m.addr)
	return nil
}

// Restart reboots a crashed member at its previous address (same
// machine, same attachment point), rejoins it through any live node, and
// republishes its location if it had published before the crash.
func (c *Cluster) Restart(name string) error {
	m := c.members[name]
	if m == nil {
		return fmt.Errorf("harness: restart: unknown node %s", name)
	}
	m.mu.Lock()
	if m.alive {
		m.mu.Unlock()
		return fmt.Errorf("harness: restart: %s is not crashed", name)
	}
	listenAddr := m.addr
	wasPublished := m.published
	m.mu.Unlock()

	// Fabric mobiles rejoin through a live stationary seed directly (no
	// scan over 10k mobiles) and never gossip: the ring drops a mobile's
	// entry anyway, so at 10k a round would be 10k RPCs that change
	// nothing.
	fabricMobile := c.cfg.Fabric && m.mobile
	var bootstrap string
	if fabricMobile {
		for _, other := range c.cfg.Stationary {
			if other != name && c.Alive(other) {
				bootstrap = c.Addr(other)
				break
			}
		}
	} else {
		for _, other := range c.LiveNames() {
			if other != name {
				bootstrap = c.Addr(other)
				break
			}
		}
	}
	if bootstrap == "" {
		return errors.New("harness: restart: no live node to rejoin through")
	}
	if err := c.boot(name, listenAddr); err != nil {
		return err
	}
	nd := c.Node(name)
	if err := nd.JoinViaContext(c.opCtxDo(), bootstrap); err != nil {
		return fmt.Errorf("harness: restart %s: rejoin: %w", name, err)
	}
	if !fabricMobile {
		for i := 0; i < 3; i++ {
			if _, err := nd.GossipOnce(c.rng); err != nil {
				c.logf("restart %s: gossip round %d: %v", name, i, err)
			}
		}
	}
	if wasPublished {
		if err := c.Publish(name); err != nil {
			return err
		}
	}
	if c.cfg.Maintain != nil {
		c.startMaintenance(m)
	}
	c.logf("%s restarted at %s", name, nd.Addr())
	return nil
}

// Partition installs a named bidirectional split between groups a and b.
func (c *Cluster) Partition(name string, a, b []string) error {
	c.mu.Lock()
	if _, dup := c.partitions[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("harness: partition %s already installed", name)
	}
	c.partitions[name] = [2][]string{append([]string(nil), a...), append([]string(nil), b...)}
	c.mu.Unlock()
	c.Net.PartitionBoth(name, a, b)
	c.logf("partition %s: %v ⟂ %v", name, a, b)
	return nil
}

// Heal removes the named partition.
func (c *Cluster) Heal(name string) error {
	c.mu.Lock()
	_, ok := c.partitions[name]
	delete(c.partitions, name)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("harness: heal: no partition named %s", name)
	}
	c.Net.Heal(name)
	c.logf("partition %s healed", name)
	return nil
}

// HealAll removes every partition installed through the cluster.
func (c *Cluster) HealAll() {
	for _, name := range c.ActivePartitions() {
		_ = c.Heal(name)
	}
}

// Register records watcher's interest in target's movement (renewing the
// registration lease when called again).
func (c *Cluster) Register(watcher, target string) error {
	wn, tn := c.Node(watcher), c.Node(target)
	if wn == nil || tn == nil || !c.Alive(watcher) || !c.Alive(target) {
		return fmt.Errorf("harness: register %s→%s: both must be live", watcher, target)
	}
	if err := wn.RegisterWithContext(c.opCtxDo(), tn.Addr()); err != nil {
		return fmt.Errorf("harness: register %s→%s: %w", watcher, target, err)
	}
	// A registrant is about to be pushed updates: attach the lazy drainer
	// now (idempotent) and remember the role so Restart revives it. The
	// updates channel buffers, so a push landing before the drainer runs
	// is not lost.
	wm := c.members[watcher]
	wm.mu.Lock()
	wm.watcher = true
	wm.mu.Unlock()
	c.ensureDrainer(wm)
	c.mu.Lock()
	set, ok := c.watchers[target]
	if !ok {
		set = make(map[string]bool)
		c.watchers[target] = set
	}
	set[watcher] = true
	c.mu.Unlock()
	return nil
}

// Resolve resolves target's key from from's cache-first resolve path.
func (c *Cluster) Resolve(from, target string) (string, error) {
	return c.ResolveKey(from, c.Key(target))
}

// ResolveKey resolves key — a member's own or one it owns — through
// from's resolve path.
func (c *Cluster) ResolveKey(from string, key hashkey.Key) (string, error) {
	fn := c.Node(from)
	if fn == nil || !c.Alive(from) {
		return "", fmt.Errorf("harness: resolve: %s is not live", from)
	}
	return fn.ResolveContext(c.opCtxDo(), key)
}

// Gossip runs anti-entropy rounds across every live ring member. Fabric
// mobiles are excluded for cost: the ring drops a mobile's entry, so at
// 10k one gossip RPC per mobile per round would change nothing.
func (c *Cluster) Gossip(rounds int) error {
	for i := 0; i < rounds; i++ {
		for _, name := range c.ringNames() {
			if !c.Alive(name) {
				continue
			}
			if _, err := c.Node(name).GossipOnce(c.rng); err != nil {
				c.logf("gossip %s: %v", name, err)
			}
		}
	}
	return nil
}

// StopMaintenance stops name's background maintenance loops (idempotent;
// used by lease-expiry scenarios that need renewal to cease).
func (c *Cluster) StopMaintenance(name string) {
	m := c.members[name]
	if m == nil {
		return
	}
	m.mu.Lock()
	stop := m.stopMaint
	m.stopMaint = nil
	m.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Shutdown stops maintenance, drainers, and every node. Node.Close joins
// every goroutine a node starts, so when Shutdown returns the world is at
// rest as far as the counters go. Idempotent; safe to defer alongside
// explicit calls.
func (c *Cluster) Shutdown() error {
	c.shutdownOnce.Do(func() {
		for _, name := range c.names {
			m := c.members[name]
			if _, alive := m.current(); alive {
				if err := c.Crash(name); err != nil && c.shutdownErr == nil {
					c.shutdownErr = err
				}
			}
		}
	})
	return c.shutdownErr
}

// goroutineSlack absorbs runtime/testing helper goroutines that come and
// go independently of the cluster.
const goroutineSlack = 3

// DumpState renders the cluster's observable state — counters, gauges,
// live membership, partitions — for failure output, so a soak failure is
// diagnosable from its artifact alone.
func (c *Cluster) DumpState() string {
	return fmt.Sprintf(
		"seed: %d\nlive: %v\npartitions: %v (transport: %v)\ncounters: %s\ngauges: %s",
		c.cfg.Seed, c.LiveNames(), c.ActivePartitions(), c.Net.PartitionNames(),
		c.Counters, c.Gauges)
}

// Eventually retries op every 10ms until it succeeds or the deadline
// lapses, returning the last error — the standard shape for asserting
// convergence under injected faults.
func Eventually(d time.Duration, op func() error) error {
	limit := time.Now().Add(d)
	for {
		err := op()
		if err == nil {
			return nil
		}
		if time.Now().After(limit) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
