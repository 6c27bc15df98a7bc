package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// ErrHomeAgentDown is returned when a packet to a mobile host cannot be
// delivered because its home agent has failed — the Type B critical point
// of failure Table 1 calls out.
var ErrHomeAgentDown = errors.New("baseline: home agent unavailable")

// ErrNoBinding is returned when the home agent has no care-of binding for
// the mobile host.
var ErrNoBinding = errors.New("baseline: no care-of binding registered")

// MobileIP models the Mobile IP (RFC 2002) infrastructure a Type B HS-P2P
// would run over: every mobile host has a home agent on a fixed home
// network; packets to the mobile host travel to the home agent first and
// are then tunneled to the registered care-of address (the triangular
// route), unless the correspondent supports route optimization (mobile
// IPv6 binding caches).
type MobileIP struct {
	Net *simnet.Network

	homeAgent map[simnet.HostID]topology.RouterID // mobile host → HA router
	careOf    map[simnet.HostID]simnet.Addr       // current registered binding
	haDown    map[simnet.HostID]bool

	// Stats accumulates delivery accounting.
	Stats MobileIPStats
}

// MobileIPStats counts Mobile IP activity.
type MobileIPStats struct {
	Registrations    uint64 // care-of (re-)registrations with home agents
	RegistrationCost float64
	Delivered        uint64
	TriangularCost   float64 // total cost actually paid
	DirectCost       float64 // what direct routes would have cost
	Failures         uint64
}

// NewMobileIP creates the infrastructure over net.
func NewMobileIP(net *simnet.Network) *MobileIP {
	return &MobileIP{
		Net:       net,
		homeAgent: make(map[simnet.HostID]topology.RouterID),
		careOf:    make(map[simnet.HostID]simnet.Addr),
		haDown:    make(map[simnet.HostID]bool),
	}
}

// AssignHomeAgent places h's home agent at the host's *current* attachment
// router (its home network) and registers the initial binding.
func (m *MobileIP) AssignHomeAgent(h simnet.HostID) {
	m.homeAgent[h] = m.Net.RouterOf(h)
	m.register(h)
}

// register renews the care-of binding at the home agent, paying the
// registration round to the HA.
func (m *MobileIP) register(h simnet.HostID) {
	ha, ok := m.homeAgent[h]
	if !ok {
		return
	}
	m.careOf[h] = m.Net.AddrOf(h)
	m.Stats.Registrations++
	m.Stats.RegistrationCost += m.Net.RouterDistance(m.Net.RouterOf(h), ha)
}

// Move relocates the mobile host and re-registers with its home agent, as
// Mobile IP requires after every handoff.
func (m *MobileIP) Move(h simnet.HostID, rng *rand.Rand) {
	m.Net.MoveRandom(h, rng)
	m.register(h)
}

// FailHomeAgent marks h's home agent as failed. Mobile IP has no fallback:
// correspondents can no longer resolve h.
func (m *MobileIP) FailHomeAgent(h simnet.HostID) { m.haDown[h] = true }

// RestoreHomeAgent brings h's home agent back.
func (m *MobileIP) RestoreHomeAgent(h simnet.HostID) { delete(m.haDown, h) }

// Send delivers a packet from src to mobile host dst through the Mobile IP
// machinery and returns the triangular cost actually paid and the direct
// cost a location-aware system would pay.
func (m *MobileIP) Send(src, dst simnet.HostID) (triangular, direct float64, err error) {
	ha, ok := m.homeAgent[dst]
	if !ok {
		return 0, 0, fmt.Errorf("baseline: host %d has no home agent", dst)
	}
	direct = m.Net.Cost(src, dst)
	if m.haDown[dst] {
		m.Stats.Failures++
		return 0, direct, ErrHomeAgentDown
	}
	binding, ok := m.careOf[dst]
	if !ok || !m.Net.Valid(binding) {
		m.Stats.Failures++
		return 0, direct, ErrNoBinding
	}
	// src → home network, then HA tunnel → care-of address.
	triangular = m.Net.RouterDistance(m.Net.RouterOf(src), ha) +
		m.Net.RouterDistance(ha, binding.Router)
	m.Stats.Delivered++
	m.Stats.TriangularCost += triangular
	m.Stats.DirectCost += direct
	return triangular, direct, nil
}

// TriangularPenalty returns the aggregate ratio of paid cost to direct
// cost across all deliveries (1.0 would be optimal routing).
func (m *MobileIP) TriangularPenalty() float64 {
	if m.Stats.DirectCost == 0 {
		return 1
	}
	return m.Stats.TriangularCost / m.Stats.DirectCost
}
