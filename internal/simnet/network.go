package simnet

import (
	"fmt"
	"math/rand"

	"bristle/internal/topology"
)

// HostID identifies an end host (an overlay node's machine). Hosts are
// dense: 0..NumHosts-1.
type HostID int32

// NoHost is the sentinel for "no host".
const NoHost HostID = -1

// Addr is a network attachment address — the simulation analogue of the
// paper's "IP address and port number". It encodes both the attachment
// router and an epoch that increments every time the host moves, so a
// cached Addr taken before a move no longer matches and models a stale
// state-pair.
type Addr struct {
	Host   HostID
	Router topology.RouterID
	Epoch  uint32
}

// IsZero reports whether a is the zero ("null" / unresolved) address,
// the paper's p.addr = null case.
func (a Addr) IsZero() bool { return a == Addr{} }

// String formats the address like host:router#epoch.
func (a Addr) String() string {
	return fmt.Sprintf("h%d:r%d#%d", a.Host, a.Router, a.Epoch)
}

type hostState struct {
	router topology.RouterID
	epoch  uint32
	alive  bool
}

// Counters aggregates traffic accounting for an experiment run.
type Counters struct {
	MessagesSent      uint64  // delivery attempts issued
	MessagesDelivered uint64  // reached a live host at a current address
	MessagesStale     uint64  // sent to an out-of-date address
	MessagesDead      uint64  // sent to a departed host
	TotalCost         float64 // sum of underlay path costs of delivered messages
}

// Network models the underlay: hosts attached to stub routers of a weighted
// transit-stub graph. It provides address management, movement, distance
// queries, and synchronous message delivery with cost accounting.
type Network struct {
	Graph *topology.Graph
	Dist  *topology.DistanceCache

	hosts []hostState
	stubs []topology.RouterID

	Counters Counters
}

// NewNetwork wraps a generated topology.
func NewNetwork(g *topology.Graph) *Network {
	return &Network{
		Graph: g,
		Dist:  topology.NewDistanceCache(g, 0),
		stubs: g.StubRouters(),
	}
}

// NumHosts returns the number of hosts ever attached (including departed).
func (n *Network) NumHosts() int { return len(n.hosts) }

// AttachHost creates a new host on the given router and returns its ID.
func (n *Network) AttachHost(r topology.RouterID) HostID {
	if int(r) >= n.Graph.NumRouters() || r < 0 {
		panic(fmt.Sprintf("simnet: attach to unknown router %d", r))
	}
	id := HostID(len(n.hosts))
	n.hosts = append(n.hosts, hostState{router: r, epoch: 1, alive: true})
	return id
}

// AttachHostRandom attaches a new host to a uniformly random stub router.
func (n *Network) AttachHostRandom(rng *rand.Rand) HostID {
	if len(n.stubs) == 0 {
		panic("simnet: topology has no stub routers")
	}
	return n.AttachHost(n.stubs[rng.Intn(len(n.stubs))])
}

// AddrOf returns the host's current address. Panics on unknown hosts;
// returns the last address (stale by construction) for departed hosts.
func (n *Network) AddrOf(h HostID) Addr {
	st := &n.hosts[h]
	return Addr{Host: h, Router: st.router, Epoch: st.epoch}
}

// RouterOf returns the host's current attachment router.
func (n *Network) RouterOf(h HostID) topology.RouterID { return n.hosts[h].router }

// Alive reports whether the host is attached.
func (n *Network) Alive(h HostID) bool { return n.hosts[h].alive }

// Move reattaches h to router r, invalidating all previously issued
// addresses, and returns the new address. This is the paper's "node moves
// to a new network attachment point".
func (n *Network) Move(h HostID, r topology.RouterID) Addr {
	if int(r) >= n.Graph.NumRouters() || r < 0 {
		panic(fmt.Sprintf("simnet: move to unknown router %d", r))
	}
	st := &n.hosts[h]
	st.router = r
	st.epoch++
	return n.AddrOf(h)
}

// MoveRandom reattaches h to a random stub router different from the
// current one (when more than one exists).
func (n *Network) MoveRandom(h HostID, rng *rand.Rand) Addr {
	cur := n.hosts[h].router
	for tries := 0; tries < 32; tries++ {
		r := n.stubs[rng.Intn(len(n.stubs))]
		if r != cur || len(n.stubs) == 1 {
			return n.Move(h, r)
		}
	}
	return n.Move(h, cur)
}

// Detach marks h as departed; all its addresses become dead.
func (n *Network) Detach(h HostID) {
	n.hosts[h].alive = false
}

// Valid reports whether addr still reaches its host: the host is alive and
// has not moved since the address was issued.
func (n *Network) Valid(addr Addr) bool {
	if addr.IsZero() || int(addr.Host) >= len(n.hosts) {
		return false
	}
	st := &n.hosts[addr.Host]
	return st.alive && st.epoch == addr.Epoch && st.router == addr.Router
}

// Cost returns the underlay shortest-path cost between the *current*
// attachment routers of two hosts.
func (n *Network) Cost(a, b HostID) float64 {
	return n.Dist.Distance(n.hosts[a].router, n.hosts[b].router)
}

// CostToAddr returns the underlay cost from host src to the router encoded
// in addr (regardless of addr validity — wasted traffic still pays cost).
func (n *Network) CostToAddr(src HostID, addr Addr) float64 {
	return n.Dist.Distance(n.hosts[src].router, addr.Router)
}

// RouterDistance exposes raw router-to-router shortest-path cost.
func (n *Network) RouterDistance(a, b topology.RouterID) float64 {
	return n.Dist.Distance(a, b)
}

// SendSync accounts for a synchronous message from src to addr and reports
// whether it was deliverable. Cost accrues whether or not delivery
// succeeds (packets to stale addresses still traverse the network).
func (n *Network) SendSync(src HostID, addr Addr) (delivered bool, cost float64) {
	cost = n.CostToAddr(src, addr)
	n.Counters.MessagesSent++
	switch {
	case addr.IsZero():
		n.Counters.MessagesStale++
		return false, 0
	case !n.hosts[addr.Host].alive:
		n.Counters.MessagesDead++
		return false, cost
	case !n.Valid(addr):
		n.Counters.MessagesStale++
		return false, cost
	default:
		n.Counters.MessagesDelivered++
		n.Counters.TotalCost += cost
		return true, cost
	}
}

// StubRouters exposes the underlay's stub routers (host attachment points).
func (n *Network) StubRouters() []topology.RouterID { return n.stubs }

// ResetCounters zeroes the traffic counters between experiment phases.
func (n *Network) ResetCounters() { n.Counters = Counters{} }
