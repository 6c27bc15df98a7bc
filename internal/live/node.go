// Package live runs Bristle's location-management protocol over real
// connections (TCP or the in-memory test transport): publish, discover,
// register, and LDT-driven location updates, with leases, exactly as
// Section 2.3 describes.
//
// A live node keeps full knowledge of the stationary ring refreshed by
// anti-entropy gossip — appropriate for the small rings a single machine
// can host; mobiles are found through their records, never the ring.
// (The O(log N) routing-state behaviour of large overlays is exercised by
// the simulation packages; the live node demonstrates the protocol end to
// end: a mobile node re-binds to a new port, republishes, pushes updates
// down a capacity-scheduled dissemination tree, and correspondents keep
// reaching it.)
//
// The implementation is split by concern, with no node-global mutex on
// any request path (DESIGN.md §13 maps every lock):
//
//   - node.go       — Config, lifecycle (Start/Close/Rebind), connection
//     serving and dispatch
//   - api.go        — the public surface: join, register, ping, Stats
//   - options.go    — New, the one constructor, its options and validation
//   - store.go      — the sharded record repository and the ingest/serve
//     handlers (publish, discover, update)
//   - membership.go — membership (the stationary ring: one sorted slice,
//     swapped once per frame) and the registry (a mutex and a map);
//     gossip/register; replica selection
//   - publish.go    — the owned-key set and the publish fan-out: full, or
//     a move's one record per replica
//   - resolve.go    — the cache-first resolve hot path
//   - advertise.go  — the LDT fan-out: each head's update, straight to
//     its session
//   - peer.go       — the one per-peer table: RTT estimate, circuit
//     breaker and pooled session of every address
//   - rpc.go        — the exchange: breaker, attempts and backoff
//   - pool.go       — the multiplexed connection pool
//
// Every public operation that can touch the network is called one way: a
// Context-suffixed method (PublishContext, DiscoverContext, ...) that
// observes the caller's cancellation and deadline end to end — through
// retries, backoff pauses, dials, and pooled exchanges.
package live

import (
	"context"
	"errors"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/loccache"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// Update is a proactive location update delivered to a registered node.
type Update struct {
	Key  hashkey.Key
	Addr string
}

// Config parameterizes a live node. It is what New's options (options.go)
// write into; New validates it and fills the defaults.
type Config struct {
	// Name seeds the node's hash key (FromName), standing in for a stable
	// node identity independent of its network address. When Identity is
	// set the key derives from the public key instead and Name is only a
	// diagnostic label.
	Name string
	// Identity is the node's cryptographic identity. When set, the node's
	// hash key is self-certifying — hashkey.IDKey(pub, region, regions) —
	// and joins carry a signed proof of the claim, so verifying peers can
	// reject a node squatting a key it didn't earn. Nil keeps the legacy
	// name-derived key and sends unsigned joins.
	Identity *hashkey.Identity
	// RequireVerifiedJoins makes this node reject TJoin requests that carry
	// no identity proof. (Joins that carry a proof are always verified,
	// with or without this flag.)
	RequireVerifiedJoins bool
	// Capacity is the advertised C_X used to schedule LDTs.
	Capacity float64
	// Mobile marks the node as relocatable (Rebind allowed).
	Mobile bool
	// Region labels where this node physically sits (a datacenter, a
	// transit domain — any coarse locality bucket). When a stationary node
	// has both Region and Regions set, its hash key is drawn from the
	// region's stripes of the ring (hashkey.RegionStriped) so that the k
	// closest stationary keys to any resource key span k distinct regions:
	// every resolver then has a replica in or near its own region for
	// latency-ordered selection to find. Mobile nodes ignore it for key
	// derivation (they don't host records) but still report it in Stats.
	Region string
	// Regions is the full deployment-wide region list (order-insensitive;
	// every node must use the same set). Empty disables region-striped
	// placement and keys fall back to plain FromName hashing.
	Regions []string
	// LeaseTTL bounds how long published locations and caches stay valid.
	// Zero disables expiry.
	LeaseTTL time.Duration
	// Replication is how many stationary peers hold this node's location
	// record (§2.3.2 availability; discovery falls over across them).
	// Minimum effective value 1; default 2.
	Replication int
	// RequestTimeout bounds one attempt of a request/response exchange —
	// a peer that accepts but never answers costs at most this long per
	// attempt. Default 10s.
	RequestTimeout time.Duration
	// RetryAttempts caps how many times one exchange is attempted before
	// giving up (default 4; 1 restores single-shot semantics).
	RetryAttempts int
	// RetryBase is the cap of the first backoff pause; it doubles per
	// retry (full jitter: the pause is uniform in [0, cap]). Default 25ms.
	RetryBase time.Duration
	// RetryMax caps a single backoff pause. Default 1s.
	RetryMax time.Duration
	// SuspicionThreshold is how many consecutive failed exchanges trip a
	// peer's circuit breaker; tripped peers fail fast and are deprioritized
	// as replicas until a probe succeeds. Default 3.
	SuspicionThreshold int
	// SuspicionCooldown is how long a tripped breaker fails fast before it
	// lets one probe through (half-open). Default 2s.
	SuspicionCooldown time.Duration
	// Pool tunes the multiplexed per-peer connection pool every exchange
	// rides (pool.go). The zero value means the defaults.
	Pool PoolConfig
	// Counters optionally records resilience events (rpc.retries,
	// rpc.timeouts, breaker.trips, pool.dials, ...); nil disables them.
	Counters *metrics.Counters
	// Gauges optionally exposes instantaneous pool state (pool.sessions,
	// pool.inflight); nil disables them.
	Gauges *metrics.Gauges
	// Logger receives protocol diagnostics; nil silences them.
	Logger *log.Logger
}

// withDefaults fills every unset knob — the single place defaults live.
func (cfg Config) withDefaults() Config {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Replication < 1 {
		cfg.Replication = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.SuspicionThreshold == 0 {
		cfg.SuspicionThreshold = 3
	}
	if cfg.SuspicionCooldown <= 0 {
		cfg.SuspicionCooldown = 2 * time.Second
	}
	cfg.Pool = cfg.Pool.withDefaults()
	return cfg
}

// maxAcceptedConns bounds the connections one attachment point serves at
// once. A remote pool holds one long-lived connection per peer, so the
// bound is on peers talking to this node at the same time.
const maxAcceptedConns = 4096

// listenerState is one network attachment point: the listener plus every
// connection accepted through it, so closing the attachment also closes
// the long-lived multiplexed connections remote pools hold against it
// (without this, Close would wait forever on their serve goroutines).
type listenerState struct {
	l transport.Listener

	mu     sync.Mutex
	closed bool
	conns  map[transport.Conn]struct{}
	max    int // conns served at once; past it an accepted conn is shed
}

func newListenerState(l transport.Listener) *listenerState {
	return &listenerState{l: l, conns: make(map[transport.Conn]struct{}), max: maxAcceptedConns}
}

func (ls *listenerState) addr() string { return ls.l.Addr() }

// track registers an accepted conn. closed means the attachment already
// closed, full that it already serves max conns; either way the conn must
// not be served.
func (ls *listenerState) track(c transport.Conn) (closed, full bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed || len(ls.conns) >= ls.max {
		return ls.closed, !ls.closed
	}
	ls.conns[c] = struct{}{}
	return false, false
}

func (ls *listenerState) forget(c transport.Conn) {
	ls.mu.Lock()
	delete(ls.conns, c)
	ls.mu.Unlock()
}

// close shuts the listener and every tracked conn. Idempotent.
func (ls *listenerState) close() {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return
	}
	ls.closed = true
	conns := make([]transport.Conn, 0, len(ls.conns))
	for c := range ls.conns {
		conns = append(conns, c)
	}
	ls.mu.Unlock()
	ls.l.Close()
	for _, c := range conns {
		c.Close()
	}
}

// binding is the node's current (address, epoch) pair, published
// atomically as one unit: a reader can never observe a new address with
// a pre-move epoch or vice versa. Written only under lifeMu (Start and
// Rebind), read lock-free everywhere.
type binding struct {
	addr  string
	epoch uint64
}

// Node is one live Bristle participant.
//
// There is no node-global mutex. State is split per concern — each piece
// guards itself, and no request-path operation (publish ingest, discover,
// update, register, resolve) takes a lock shared with any other concern:
//
//   - lifeMu guards lifecycle transitions only (listener swaps, the stop
//     flag); handlers never touch it.
//   - self is the atomically published (addr, epoch) binding.
//   - members, the stationary ring, is one immutable key-sorted slice
//     behind an atomic pointer (membership.go): reads are lock-free, and a
//     join or gossip frame that carries news clones it once under a
//     private writer mutex and swaps once.
//   - registry, written far more often than read, is a map under its own
//     mutex.
//   - store and seen are sixteen-way key-sharded tables (store.go).
//   - owned, and what the node remembers of its last full publish, have
//     their own small mutex (publish.go).
//   - peers is the one per-address table (peer.go): RTT estimates and
//     breaker state are atomics, each record's mutex guards its breaker
//     transitions and its pooled session.
type Node struct {
	cfg  Config
	key  hashkey.Key
	tr   transport.Transport
	pool *pool    // every outbound frame rides one of its sessions
	ctr  counters // event handles into cfg.Counters

	lifeMu   sync.Mutex
	listener *listenerState
	stopped  bool

	self atomic.Pointer[binding]

	members  membership    // the stationary ring (incl. self if stationary); one COW slice
	registry registryTable // R(self): interested nodes, leased; locked map
	store    recordStore   // sharded repository of published records
	seen     epochTable    // sharded newest-ingested TUpdate epochs

	// ids binds each verified joiner's key to a fingerprint of the public
	// identity that earned it (join.go): a later join may re-present the
	// same identity, never a different one, and an unsigned join can never
	// claim a verified key.
	idsMu sync.Mutex
	ids   map[hashkey.Key][32]byte

	// owned is the set of resource keys published as this node's, beyond
	// its own identity key; replicas resolve them through this node's
	// record, so only a full publish carries them. ownedGen counts what
	// leaves some replica owed a full publish — every OwnKeys and
	// DisownKeys, every holder that missed a frame — and full is the last
	// full publish that reached every holder: while full.gen == ownedGen
	// (and the membership generation and the leases agree, publish.go) a
	// move sends one record.
	ownedMu  sync.Mutex
	owned    map[hashkey.Key]struct{}
	ownedGen uint64
	full     fullPublish

	// loc holds locations this node has *learned* about others — TUpdate
	// pushes (early binding) and discover answers (late binding) write
	// through it; ResolveContext reads it. It is never served to the
	// network, and the resolve hot path shares no lock with the protocol
	// path.
	loc     *loccache.Cache
	flights loccache.Group // coalesces concurrent discoveries per key

	peers peerTable // every address's RTT estimate, breaker and session (peer.go)

	wg      sync.WaitGroup
	updates chan Update

	// runCtx is the node's lifecycle context: canceled by Close, it bounds
	// every background send the node originates on its own behalf (LDT
	// re-advertisement, detached flights) so shutdown never stalls on
	// in-flight fan-out.
	runCtx    context.Context
	runCancel context.CancelFunc
}

// newNode is the step New ends in: it validates cfg, fills the defaults
// and builds a stopped node.
func newNode(cfg Config, tr transport.Transport) (*Node, error) {
	if tr == nil {
		return nil, errors.New("live: transport must not be nil")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var key hashkey.Key
	switch {
	case cfg.Identity != nil:
		// Self-certifying key: derived from the public identity (region-
		// striped for regional stationary nodes), so the join proof any
		// peer verifies recomputes exactly this value.
		key = hashkey.IDKey(cfg.Identity.Public(), stationaryRegion(cfg), cfg.Regions)
	case !cfg.Mobile && cfg.Region != "" && len(cfg.Regions) > 0:
		// Region-clustered stationary placement: the key lands in one of
		// this region's ring stripes, so consecutive stationary keys — and
		// therefore any record's k-closest replica set — interleave regions.
		key = hashkey.RegionStriped(hashkey.FullRing(), cfg.Name, cfg.Region, cfg.Regions)
	default:
		key = hashkey.FromName(cfg.Name)
	}
	n := &Node{
		cfg:     cfg,
		key:     key,
		tr:      tr,
		ctr:     newCounters(cfg.Counters),
		updates: make(chan Update, 64),
		owned:   make(map[hashkey.Key]struct{}),
		ids:     make(map[hashkey.Key][32]byte),
		loc:     loccache.New(loccache.Config{Counters: cfg.Counters, Gauges: cfg.Gauges}),
	}
	n.peers.init()
	oneWayResult := func(p *peer, err error) { p.breakerResult(n, err, false) }
	n.pool = newPool(tr, cfg.Pool, oneWayResult, cfg.Counters, cfg.Gauges)
	// The epoch is seeded from the wall clock so a restarted node (fresh
	// process, same name) still outranks its pre-crash publications.
	n.self.Store(&binding{epoch: nextEpoch(0)})
	n.members.init(key)
	n.registry.init(registryMax)
	n.store.init()
	n.seen.init()
	n.runCtx, n.runCancel = context.WithCancel(context.Background())
	return n, nil
}

// Key returns the node's hash key.
func (n *Node) Key() hashkey.Key { return n.key }

// Addr returns the node's current dialable address ("" before Start).
// Lock-free.
func (n *Node) Addr() string { return n.self.Load().addr }

// Updates delivers proactive location updates pushed to this node through
// the dissemination trees it registered with.
func (n *Node) Updates() <-chan Update { return n.updates }

// SelfEntry returns the node's current state-pair. Lock-free: the
// (addr, epoch) binding is read as one atomic unit.
func (n *Node) SelfEntry() wire.Entry {
	b := n.self.Load()
	return wire.Entry{
		Key:      n.key,
		Addr:     b.addr,
		Capacity: n.cfg.Capacity,
		TTLMilli: uint32(n.cfg.LeaseTTL / time.Millisecond),
		Mobile:   n.cfg.Mobile,
		Epoch:    b.epoch,
	}
}

// nextEpoch returns a publish epoch strictly greater than prev. Seeding
// from the wall clock makes epochs monotonic across process restarts
// (a rebooted publisher must outrank its own pre-crash records at
// replicas that survived it); the prev+1 arm keeps them monotonic even
// against a clock that stands still or steps backwards.
func nextEpoch(prev uint64) uint64 {
	now := uint64(time.Now().UnixNano())
	if now <= prev {
		return prev + 1
	}
	return now
}

// Start binds a listener on listenAddr (":0" for an ephemeral port) and
// begins serving the protocol. A node starts once: a mobile moves with
// RebindContext.
func (n *Node) Start(listenAddr string) error {
	return n.attach(listenAddr, false)
}

// attach binds a listener on listenAddr and makes it the node's attachment
// point: the binding takes its address — under a new epoch when the node
// moves — the ring learns it, and an accept loop serves it. A move closes
// the attachment point it leaves; a stopped node, or a started one that
// does not move, attaches nothing.
func (n *Node) attach(listenAddr string, move bool) error {
	l, err := n.tr.Listen(listenAddr)
	if err != nil {
		return err
	}
	ls := newListenerState(l)
	n.lifeMu.Lock()
	switch {
	case n.stopped:
		err = ErrStopped
	case n.listener != nil && !move: // a second accept loop would orphan the first
		err = errors.New("live: node already started")
	}
	if err != nil {
		n.lifeMu.Unlock()
		ls.close()
		return err
	}
	old := n.listener
	n.listener = ls
	// A move's binding supersedes every frame sent for the old one: the
	// epoch bumps atomically with the address, before any peer can learn
	// it, so a delayed or duplicated pre-move frame can never displace it
	// anywhere.
	epoch := n.self.Load().epoch
	if move {
		epoch = nextEpoch(epoch)
	}
	n.self.Store(&binding{addr: ls.addr(), epoch: epoch})
	n.lifeMu.Unlock()
	if old != nil {
		old.close() // the old attachment point disappears
	}
	n.members.apply(direct, n.SelfEntry()) // a stationary is in its own ring; a mobile is in none

	if n.enter() { // stopped meanwhile: Close closed ls
		go n.acceptLoop(ls)
	}
	return nil
}

// enter counts a goroutine about to start in the wait group Close joins,
// unless the node has stopped, and reports whether it did; the goroutine
// calls n.wg.Done as it ends. Every Add of n.wg is here, or on a goroutine
// counted here (an accept loop's, for its serve loops): none races Close.
func (n *Node) enter() bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if !n.stopped {
		n.wg.Add(1)
	}
	return !n.stopped
}

// Close stops serving: the connection pool drains, the listener and every
// accepted connection close, and every goroutine the node started — the
// server's, and a publish's fan-out — has exited when it returns.
func (n *Node) Close() error {
	n.lifeMu.Lock()
	if n.stopped {
		n.lifeMu.Unlock()
		return nil
	}
	n.stopped = true
	ls := n.listener
	n.lifeMu.Unlock()
	n.runCancel() // abort a publish's fan-out and a detached flight
	n.pool.Close()
	if ls != nil {
		ls.close()
	}
	n.wg.Wait()
	return nil
}

// RebindContext moves a mobile node to a new listener (a new network
// attachment point), pushes the update through its dissemination tree and
// republishes its location — one record per replica when that is all the
// replicas lack (publish.go). The push only enqueues a frame per head, so
// it comes first and costs the publish nothing: registrants hear of the
// move though no replica can be reached (early binding does not depend on
// late binding's repository), and the error reports both. Connections
// accepted through the old attachment point close with it, exactly as a
// real relocation severs them. A closed node does not move.
func (n *Node) RebindContext(ctx context.Context, listenAddr string) error {
	if !n.cfg.Mobile {
		return errors.New("live: node is not mobile")
	}
	if err := n.attach(listenAddr, true); err != nil {
		return err
	}
	n.logf("rebound to %s", n.Addr())

	pushed := n.UpdateRegistryContext(ctx)
	return errors.Join(n.publish(ctx, false), pushed)
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Printf("[%s %s] "+format, append([]interface{}{n.cfg.Name, n.key}, args...)...)
	}
}

func (n *Node) acceptLoop(ls *listenerState) {
	defer n.wg.Done()
	for {
		conn, err := ls.l.Accept()
		if err != nil {
			return
		}
		if closed, full := ls.track(conn); closed || full {
			// Shed: the dialer's session sees the conn torn and its retry
			// layer backs off, exactly as after any broken connection.
			conn.Close()
			if closed {
				return
			}
			n.ctr.serveShed.Inc()
			continue
		}
		n.wg.Add(1)
		go n.serveConn(ls, conn)
	}
}

// serveConn serves one accepted connection on one goroutine, its reader.
// Every handler is a bounded table read or write — membership is the
// stationary ring, so no frame from the mobile fleet clones it — and runs
// between two reads, in the order the frames arrived, with its reply
// queued on the conn: the replies to a burst of pipelined requests leave
// in one write, flushed once the read buffer holds no whole frame, so
// before a Recv that may block. TUpdate's forwarding too only enqueues
// (store.go), and no Queue waits on the link: no reply holds up a read.
// Only a failed read ends the loop: a peer that stops reading replies
// still has its pushes applied.
//
// Fully handled frames (and shipped responses) go back to the wire
// codec's message pool: the handlers copy everything they keep, so the
// steady-state serve path recycles its messages and takes no more out
// than it puts in.
func (n *Node) serveConn(ls *listenerState, conn transport.Conn) {
	defer n.wg.Done()
	defer ls.forget(conn)
	defer conn.Close()
	var batch uint64 // replies queued since the last flush
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		resp := n.handle(msg)
		wire.PutMessage(msg)
		if resp != nil && conn.Queue(resp) == nil {
			batch++
		}
		wire.PutMessage(resp)
		if batch > 0 && !conn.Buffered() {
			n.ctr.serveFrames.Add(batch)
			n.ctr.serveFlushes.Inc()
			batch = 0
			conn.Flush() // a failed write is sticky: no later reply is queued
		}
	}
}

// handle dispatches one inbound message and returns the response frame
// (nil for one-way messages).
func (n *Node) handle(m *wire.Message) *wire.Message {
	switch m.Type {
	case wire.TPing:
		resp := wire.GetMessage()
		resp.Type, resp.Seq = wire.TPong, m.Seq
		return resp

	case wire.TJoin:
		return n.handleJoin(m)

	case wire.TPublishBatch:
		n.handlePublishBatch(m)
		return &wire.Message{Type: wire.TPublishAck, Seq: m.Seq, Found: true}

	case wire.TDiscover:
		return n.handleDiscover(m)

	case wire.TRegister:
		return n.handleRegister(m)

	case wire.TUpdate:
		n.handleUpdate(m)
		return nil

	case wire.TLeafExchange:
		return n.handleLeafExchange(m)

	default:
		n.logf("dropping unknown message type %v", m.Type)
		return nil
	}
}
