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
// key-sorted slice behind an atomic pointer, so readers (KnownPeers, rank)
// load a pointer and walk it with no lock, and a writer applies a whole
// frame to one clone and swaps once. R(self) is the opposite: written by
// every registrant every half lease and read once per move, so it is a
// mutex and a map, held to registryMax entries.
// Replica selection (ranking, below) reads the ring with no heap copy and
// no map per key.

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
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
	i, known = slices.BinarySearchFunc(ring, e.Key, func(cur wire.Entry, k hashkey.Key) int {
		return cmp.Compare(cur.Key, k)
	})
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

// SelectReplicas picks key's k-replica set from cands: the k closest by
// ring distance, diversified across regions when the deployment is
// region-striped (regions = len(Config.Regions), 0 or 1 disables it).
//
// Under region-striped placement (hashkey.RegionStriped) a stationary
// peer's region is recoverable from its key alone (hashkey.RegionIndex),
// so diversification needs no wire metadata and every node — publisher
// or resolver — computes the identical set from the same membership:
// walking outward from key, the closest candidate of each distinct
// region is taken first; remaining slots fill with the closest passed-
// over candidates. Plain k-closest placement can put a record's whole
// replica set in one region (labels are i.i.d. across the sorted ring —
// only k!/k^k of sets span k regions); diversified selection makes every
// set span min(k, regions) regions, which is what gives every resolver a
// near replica for latency-ordered contact to find.
//
// cands is re-sorted in place; the result aliases it. Exported so the
// stretch evaluation (internal/stretch) places records exactly as the
// live node does.
func SelectReplicas(cands []wire.Entry, key hashkey.Key, k, regions int) []wire.Entry {
	slices.SortFunc(cands, func(a, b wire.Entry) int {
		switch {
		case hashkey.Closer(key, a.Key, b.Key):
			return -1
		case hashkey.Closer(key, b.Key, a.Key):
			return 1
		}
		return 0
	})
	if k >= len(cands) {
		return cands
	}
	if regions < 2 {
		return cands[:k]
	}
	// One in-place stable pass: bubble the closest candidate of each
	// not-yet-seen region forward into the take region [0, taken), keeping
	// everything else in distance order, then cut at k.
	region := func(e wire.Entry) int { return hashkey.RegionIndex(hashkey.FullRing(), e.Key, regions) }
	taken := 0 // cands[:taken] are of distinct regions: the regions seen
	for i := 0; i < len(cands) && taken < k && taken < regions; i++ {
		ri := region(cands[i])
		if ri < 0 || slices.ContainsFunc(cands[:taken], func(e wire.Entry) bool { return region(e) == ri }) {
			continue
		}
		e := cands[i]
		copy(cands[taken+1:i+1], cands[taken:i])
		cands[taken] = e
		taken++
	}
	return cands[:k]
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
// stays. The node's fan-outs (ranking.owners) and the simulation harness
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

// ranking is one fan-out's frozen view of replica quality over the
// stationary ring — the only legal owners of location records (Section
// 2.1; mobile peers' addresses are exactly what's being resolved). eff[i]
// is ring[i]'s measured EWMA RTT, or 0 when it has none: an unmeasured
// replica is contacted first, which is how its estimate gets seeded, and
// ranks by that estimate from then on. suspect[i] says ring[i]'s breaker
// is not closed; nil when nobody's is, which one atomic load decides.
type ranking struct {
	ring    []wire.Entry // ascending by key; shared with the view, never written
	gen     int          // the view's generation, which a move compares (publish.go)
	regions int
	eff     []time.Duration
	suspect []bool
	cands   []wire.Entry // a copy of ring for owners to re-sort, key after key
}

// rankScratch holds a ranking's arrays while the ring is small: declared
// on its caller's stack, the ranking costs no allocation.
type rankScratch struct {
	eff     [16]time.Duration
	suspect [16]bool
	cands   [16]wire.Entry
}

// rank samples suspicion and RTT once for a fan-out over the known
// stationary peers, as OrderContacts reads them: an unmeasured peer
// ranks at 0, ahead of every measured one.
func (n *Node) rank(s *rankScratch) (ranking, error) {
	v := n.members.snapshot()
	ring := v.ring
	r := ranking{ring: ring, gen: v.gen, regions: len(n.cfg.Regions), eff: s.eff[:0], cands: append(s.cands[:0], ring...)}
	if len(ring) == 0 {
		return r, errors.New("live: no known stationary peers")
	}
	// One lookup per ring member answers both questions about it.
	anySuspect := n.peers.suspects.Load() != 0
	if anySuspect {
		r.suspect = s.suspect[:0]
	}
	for _, e := range r.ring {
		p := n.peers.get(e.Addr, false)
		est, _ := p.estimate()
		r.eff = append(r.eff, est)
		if anySuspect {
			r.suspect = append(r.suspect, p.suspect())
		}
	}
	return r, nil
}

// owners returns key's k replicas in contact order: SelectReplicas's set
// (the k closest stationary peers, replicated for §2.3.2 availability) in
// OrderContacts's order (suspects last, then ascending effective RTT),
// read from the ranking's arrays. Publish and discovery so fall over
// across replicas nearest-healthy-first and pay a suspect peer's timeout
// only when every healthy replica failed. Only the k selected are
// ordered. The result aliases cands until the next call.
func (r *ranking) owners(key hashkey.Key, k int) []wire.Entry {
	owners := SelectReplicas(r.cands, key, k, r.regions)
	OrderContacts(owners, r.contact)
	return owners
}

// contact reads the ranking's row for the ring member e.
func (r *ranking) contact(e wire.Entry) Contact {
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].Key >= e.Key })
	return Contact{Suspect: r.suspect != nil && r.suspect[i], RTT: r.eff[i]}
}
