package live

// This file is the node's membership and registry state, each table in
// the one form its traffic asks for. Membership is the stationary ring:
// the paper's repository layer, the only legal holders of location
// records. A mobile is found through its identity record at its replicas
// (store.go), never through the directory, so no mobile entry is ever
// admitted — the ring, every gossip and leaf-exchange frame and every join
// reply are sized by the stationary layer however large the mobile fleet
// grows, and no publish, register or update writes membership at all. The
// ring is read by every publish and discover (replica selection) and
// written only when a join or gossip frame carries news: one immutable
// key-sorted slice behind an atomic pointer, so readers (KnownPeers,
// replicas) load a pointer and walk it with no lock, and a writer applies
// a whole frame to one clone and swaps once. R(self) is the opposite: written by
// every registrant every half lease and read once per move, so it is a
// mutex and a map, held to registryMax entries.
// Replica selection (replicas, below) walks the ring outward from a key,
// with no copy of it and no lookup beyond the replicas it picks.

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// memberView is one immutable membership snapshot: every known stationary
// (self included, when stationary) ascending by key. The ring is never
// mutated — callers that reorder entries, or hand them to a message that
// will be recycled, copy first.
type memberView struct {
	ring []wire.Entry
	gen  int // the swaps that led to this view: a publish asks it whether the ring changed
}

// source says whose word an entry is, which decides how it is admitted.
type source bool

const (
	// direct is the subject's own word — a joiner's Self, this node's own
	// binding. It overwrites at an equal epoch (a rejoin may change lease or
	// capacity without a move) and is dropped only when older than what is
	// known.
	direct source = false
	// hearsay is a third party's word — a directory, a gossip reply, a leaf
	// exchange. It is adopted only for an unknown key or at a strictly
	// newer epoch (a later binding by definition, so adopting it is
	// idempotent and never regresses an address), and never about self.
	hearsay source = true
)

// admit looks e up in ring, which is ascending by key: i is where e's key
// is or belongs, known whether it is there, and news whether e changes
// the ring of the node with key self. A mobile entry is never news.
func admit(ring []wire.Entry, e wire.Entry, from source, self hashkey.Key) (i int, known, news bool) {
	i = position(ring, e.Key)
	known = i < len(ring) && ring[i].Key == e.Key
	switch {
	case e.Mobile: // found through its record, never through the directory
	case from == hearsay && e.Key == self: // a node knows itself best
	case !known:
		news = true
	case from == hearsay:
		news = e.Epoch > ring[i].Epoch
	default:
		news = e.Epoch >= ring[i].Epoch && e != ring[i]
	}
	return i, known, news
}

// position is where key is or belongs in ring, which is ascending by key:
// the first index whose key is not below it.
func position(ring []wire.Entry, key hashkey.Key) int {
	lo, hi := 0, len(ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ring[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// membership is the COW membership table of the node with key self.
type membership struct {
	self hashkey.Key
	mu   sync.Mutex // serializes writers only
	view atomic.Pointer[memberView]
}

func (m *membership) init(self hashkey.Key) {
	m.self = self
	m.view.Store(&memberView{})
}

func (m *membership) snapshot() *memberView { return m.view.Load() }

// apply is the one writer: it takes a frame's entries in arrival order
// under admit's rules on one clone of the view, and publishes the clone
// with one swap. A frame that carries no news costs its lookups and
// nothing else.
func (m *membership) apply(from source, entries ...wire.Entry) {
	isNews := func(ring []wire.Entry) bool {
		return slices.ContainsFunc(entries, func(e wire.Entry) bool {
			_, _, news := admit(ring, e, from, m.self)
			return news
		})
	}
	if !isNews(m.view.Load().ring) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	if !isNews(v.ring) {
		return // another writer got there first
	}
	nv := &memberView{ring: make([]wire.Entry, len(v.ring), len(v.ring)+len(entries)), gen: v.gen + 1}
	copy(nv.ring, v.ring)
	for _, e := range entries {
		switch i, known, news := admit(nv.ring, e, from, m.self); {
		case !news:
		case known:
			nv.ring[i] = e
		default:
			nv.ring = slices.Insert(nv.ring, i, e)
		}
	}
	m.view.Store(nv)
}

func (m *membership) size() int { return len(m.view.Load().ring) }

// registration is one R(self) entry held under its registrant's lease: a
// registrant that stops renewing its interest (re-registering) lapses out
// of the LDT fan-out instead of receiving pushes forever. TTLMilli 0
// registers without a lease.
type registration struct {
	entry   wire.Entry
	expires int64 // monotime when the lease lapses; 0 = no lease
}

func (r registration) live(now int64) bool { return r.expires == 0 || now < r.expires }

// registryMax bounds R(self): the registrations one node holds, and so
// the registrants one move pushes to.
const registryMax = 1 << 14

// registryTable is R(self): TRegister writes it, the LDT fan-out and
// Registry read it, the sweeps delete lapsed leases from it. It holds at
// most max registrations.
type registryTable struct {
	mu  sync.Mutex
	m   map[hashkey.Key]registration
	max int
}

func (t *registryTable) init(max int) { t.m, t.max = make(map[hashkey.Key]registration), max }

// put records reg under newest-epoch-wins: a registration older than the
// one held is a delayed or duplicated frame from before its registrant
// moved, and must not put the old address back; an equal epoch renews the
// lease. A new registrant is refused while the table is full: put reports
// false.
func (t *registryTable) put(reg registration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.m[reg.entry.Key]
	switch {
	case ok && cur.entry.Epoch > reg.entry.Epoch:
	case !ok && len(t.m) >= t.max:
		return false
	default:
		t.m[reg.entry.Key] = reg
	}
	return true
}

// sweep drops registrations whose lease lapsed before now, returning how
// many were removed.
func (t *registryTable) sweep(now int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := len(t.m)
	for k, r := range t.m {
		if !r.live(now) {
			delete(t.m, k)
		}
	}
	return before - len(t.m)
}

// live returns the entries whose lease has not lapsed at now, ascending
// by key.
func (t *registryTable) live(now int64) []wire.Entry {
	t.mu.Lock()
	out := make([]wire.Entry, 0, len(t.m))
	for _, r := range t.m {
		if r.live(now) {
			out = append(out, r.entry)
		}
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b wire.Entry) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

func (t *registryTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func (n *Node) handleLeafExchange(m *wire.Message) *wire.Message {
	n.members.apply(hearsay, m.Entries...)
	return &wire.Message{Type: wire.TLeafExchange, Seq: m.Seq, Found: true, Entries: n.KnownPeers()}
}

// handleRegister records the sender's interest in this node's movement.
// The registrant's own lease bounds that interest: re-registering renews
// it, silence lets it lapse (swept by maintenance and by the LDT fan-out
// itself). A new registrant finding R(self) full makes room by sweeping
// the lapsed leases; failing that it is shed (registry.shed) with a
// refusal, which RegisterWithContext reports as ErrOverloaded.
func (n *Node) handleRegister(m *wire.Message) *wire.Message {
	reg := registration{entry: m.Self, expires: leaseEnd(monotime(), m.Self.TTLMilli)}
	if !n.registry.put(reg) && (n.SweepRegistry() == 0 || !n.registry.put(reg)) {
		n.ctr.registryShed.Inc()
		return &wire.Message{Type: wire.TRegisterAck, Seq: m.Seq}
	}
	if n.cfg.Logger != nil {
		n.logf("register from %v (%s)", m.Self.Key, m.Self.Addr)
	}
	return &wire.Message{Type: wire.TRegisterAck, Seq: m.Seq, Found: true}
}

// KnownPeers returns the stationary ring as this node knows it (itself
// included when it is stationary), sorted by key. Lock-free: it copies one
// immutable snapshot.
func (n *Node) KnownPeers() []wire.Entry {
	return slices.Clone(n.members.snapshot().ring)
}

// Registry returns R(self): the entries registered as interested in this
// node's movement whose lease has not lapsed, sorted by key.
func (n *Node) Registry() []wire.Entry { return n.registry.live(monotime()) }

// SweepRegistry drops registrations whose lease has lapsed and returns
// how many were removed (counted as registry.expired). StartMaintenance
// calls it periodically; the LDT fan-out also sweeps inline, so the
// periodic sweep only bounds how long a dead registrant occupies memory.
func (n *Node) SweepRegistry() int {
	removed := n.registry.sweep(monotime())
	if removed > 0 {
		n.ctr.registryExpired.Add(uint64(removed))
		n.logf("swept %d lapsed registrations", removed)
	}
	return removed
}

// GossipOnce performs one anti-entropy round with a random stationary,
// exchanging views of the ring. Returns the number of entries learned.
// Closing the node cancels the exchange.
func (n *Node) GossipOnce(rng *rand.Rand) (int, error) {
	return n.gossipOnce(n.runCtx, rng)
}

// gossipOnce is GossipOnce under the caller's context (the maintenance
// loop's, which stop() cancels).
func (n *Node) gossipOnce(ctx context.Context, rng *rand.Rand) (int, error) {
	v := n.members.snapshot()
	before := len(v.ring)
	others := make([]wire.Entry, 0, len(v.ring))
	for _, e := range v.ring {
		if e.Key != n.key {
			others = append(others, e)
		}
	}
	if len(others) == 0 {
		return 0, nil
	}
	// Prefer partners that are not currently suspect; fall back to the
	// full set so an all-suspect view still gossips (and probes).
	healthy := others[:0:0]
	for _, e := range others {
		if !n.peers.get(e.Addr, false).suspect() {
			healthy = append(healthy, e)
		}
	}
	if len(healthy) > 0 {
		others = healthy
	}
	target := others[rng.Intn(len(others))]
	resp, err := n.request(ctx, target.Addr, &wire.Message{Type: wire.TLeafExchange, Entries: v.ring})
	if err != nil {
		return 0, err
	}
	n.members.apply(hearsay, resp.Entries...)
	return n.members.size() - before, nil
}

// SelectReplicas picks key's k-replica set from cands by the live node's
// own placement (replicas), so the stretch evaluation (internal/stretch)
// and the loadgen place records exactly as a node does. cands is sorted
// by key in place when it is not already, and the set is copied into its
// head: the result is cands[:k].
func SelectReplicas(cands []wire.Entry, key hashkey.Key, k, regions int) []wire.Entry {
	byKey := func(a, b wire.Entry) int { return cmp.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(cands, byKey) {
		slices.SortFunc(cands, byKey)
	}
	var buf [8]wire.Entry
	return cands[:copy(cands, replicas(buf[:0], cands, key, k, regions))]
}

// replicas writes key's k-replica set from ring (ascending by key) into
// buf, an array on the caller's stack, and returns it: the k members
// closest to key by ring distance, in distance order, a tie going
// clockwise as hashkey.Closer breaks it; all of ring when k covers it.
// A region-striped deployment (regions = len(Config.Regions) ≥ 2) carries
// each stationary's region in its key (hashkey.RegionIndex), so every node
// computes the same region-diverse set: the closest member of each region
// leads, up to min(k, regions) of them, and the closest others fill the
// rest. A plain k-closest set can sit in one region; a diverse one gives
// every resolver a near replica for the contact order to find. Two
// cursors walk outward from key, the nearer head next, and stop once the
// set is whole: about k steps at any ring size, more only to reach a
// region's closest member.
func replicas(buf, ring []wire.Entry, key hashkey.Key, k, regions int) []wire.Entry {
	n, want := len(ring), 0 // want: region representatives to take first
	if k >= n {
		k = n
	} else if regions >= 2 {
		want = min(k, regions)
	}
	region := func(e wire.Entry) int { return hashkey.RegionIndex(hashkey.FullRing(), e.Key, regions) }
	cw := position(ring, key)
	ccw := cw - 1
	out, taken := buf[:0], 0 // out[:taken] are of distinct regions
	for seen := 0; seen < n && (len(out) < k || taken < want); seen++ {
		if cw == n {
			cw = 0
		}
		if ccw < 0 {
			ccw = n - 1
		}
		e := ring[cw]
		if far := ring[ccw]; hashkey.Clockwise(far.Key, key) < hashkey.Clockwise(key, e.Key) {
			e = far
			ccw--
		} else {
			cw++
		}
		switch ri := region(e); {
		case taken < want && ri >= 0 && !slices.ContainsFunc(out[:taken], func(o wire.Entry) bool { return region(o) == ri }):
			if len(out) < k { // else the farthest other member makes room
				out = append(out, wire.Entry{})
			}
			copy(out[taken+1:], out[taken:])
			out[taken] = e
			taken++
		case len(out) < k:
			out = append(out, e)
		}
	}
	return out
}

// Contact is what the contact order reads of one replica.
type Contact struct {
	Suspect bool          // its breaker is not closed
	RTT     time.Duration // its effective RTT; 0 while unmeasured
}

// OrderContacts stable-sorts a replica set into contact order, reading
// each replica's Contact from of: suspects after healthy peers whatever
// their RTT (a near but broken replica still costs a timeout before the
// breaker trips), and within each class by ascending effective RTT. An
// unmeasured peer compares at zero, ahead of every measured one, which
// seeds its estimate; with no estimates the incoming (key-distance) order
// stays. The node's discover (Node.owners) and the simulation harness
// (internal/stretch) both sort with it.
func OrderContacts(replicas []wire.Entry, of func(wire.Entry) Contact) {
	for i := 1; i < len(replicas); i++ { // stable insertion sort: a replica set is a handful
		for j := i; j > 0 && contactBefore(of(replicas[j]), of(replicas[j-1])); j-- {
			replicas[j], replicas[j-1] = replicas[j-1], replicas[j]
		}
	}
}

// contactBefore reports whether a is contacted strictly ahead of b.
func contactBefore(a, b Contact) bool {
	if a.Suspect != b.Suspect {
		return b.Suspect
	}
	return a.RTT < b.RTT
}

// OrderReplicas is OrderContacts over maps: suspect and eff by address, a
// missing address healthy and unmeasured. The loadgen's per-layer rung
// times it.
func OrderReplicas(replicas []wire.Entry, suspect map[string]bool, eff map[string]time.Duration) {
	OrderContacts(replicas, func(e wire.Entry) Contact { return Contact{suspect[e.Addr], eff[e.Addr]} })
}

// errNoStationaries: a node that knows no stationary peer has nobody to
// hold or serve a record.
var errNoStationaries = errors.New("live: no known stationary peers")

// owners writes key's replicas into buf in contact order, read from each
// replica's own peer record: discovery so falls over nearest-healthy-first
// and pays a suspect's timeout only once every healthy replica failed.
func (n *Node) owners(buf []wire.Entry, key hashkey.Key) ([]wire.Entry, error) {
	ring := n.members.snapshot().ring
	if len(ring) == 0 {
		return nil, errNoStationaries
	}
	owners := replicas(buf, ring, key, n.cfg.Replication, len(n.cfg.Regions))
	OrderContacts(owners, func(e wire.Entry) Contact {
		p := n.peers.get(e.Addr, false) // nil for an address never reached: healthy, unmeasured
		rtt, _ := p.estimate()
		return Contact{Suspect: p.suspect(), RTT: rtt}
	})
	return owners, nil
}
