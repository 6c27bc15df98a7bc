package live

// This file is the one table of per-peer state. Everything a node keeps
// about the far end of an address — the smoothed round trip of its own
// exchanges with it (proximity-aware replica ordering, fed by the traffic
// the node already sends: zero probes), the suspicion circuit breaker
// (repeated failures mark the peer suspect so later operations fail fast
// instead of burning a timeout, until a probe succeeds: §2.3.2's graceful
// degradation applied to the transport itself) and the pooled session
// (pool.go) — is one record, looked up once per exchange and handed down
// from request/oneWay to the session. Stats, the contact order and the
// suspect probe read estimate, suspicion and session from that same
// record, so they cannot disagree about which peers exist.
//
// The table is sharded by address hash, each shard an immutable map behind
// an atomic pointer: a lookup is one hash and one load — no lock, no
// allocation. Only admitting a previously unseen address takes the shard's
// writer mutex, to clone the map. A record lives as long as the node.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/metrics"
)

// rttAlpha is the EWMA smoothing factor per sample: heavy enough that a
// peer's estimate converges within a handful of exchanges, light enough
// that one GC pause or retransmit doesn't swing the ordering.
const rttAlpha = 0.25

// The classic three-state circuit; a peer's zero value is closed.
const (
	bkClosed   int32 = iota // healthy: all traffic flows
	bkOpen                  // suspect: fail fast until probeAt
	bkHalfOpen              // one probe in flight; others fail fast
)

// peer is one address's record. state and fails change only under mu and
// are read without it: the steady state — closed, no failure on record —
// costs an exchange two loads and no lock.
type peer struct {
	addr  string
	rtt   metrics.EWMA // round trips of this node's successful exchanges; atomic
	state atomic.Int32 // bkClosed, bkOpen or bkHalfOpen
	fails atomic.Int32 // consecutive failed exchanges

	mu      sync.Mutex // guards breaker transitions, probeAt and sess
	probeAt time.Time  // when open: earliest next probe
	sess    *session   // the pooled session, nil while there is none (pool.go)
}

type peerShard struct {
	mu   sync.Mutex // serializes admissions only
	view atomic.Pointer[map[string]*peer]
}

// peerTable holds every peer this node has tried to reach.
type peerTable struct {
	shards [stateShards]peerShard
}

func (t *peerTable) init() {
	for i := range t.shards {
		t.shards[i].view.Store(&map[string]*peer{})
	}
}

// addrShard hashes an address to a shard index by FNV-1a — addresses are
// short strings, and the keyed tables' mask trick needs a well-mixed
// integer first.
func addrShard(addr string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= 16777619
	}
	return h & (stateShards - 1)
}

// get returns addr's record; admit says whether to create it when the node
// has none (an exchange does, a reader of estimates and suspicion gets nil).
func (t *peerTable) get(addr string, admit bool) *peer {
	sh := &t.shards[addrShard(addr)]
	p := (*sh.view.Load())[addr]
	if p != nil || !admit {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := *sh.view.Load()
	if p = old[addr]; p != nil {
		return p
	}
	// The records are shared between views, so the clone resets nothing.
	view := make(map[string]*peer, len(old)+1)
	for a, q := range old {
		view[a] = q
	}
	p = &peer{addr: addr}
	view[addr] = p
	sh.view.Store(&view)
	return p
}

// each calls f on every record admitted before the walk reached its shard.
func (t *peerTable) each(f func(*peer)) {
	for i := range t.shards {
		for _, p := range *t.shards[i].view.Load() {
			f(p)
		}
	}
}

// observe folds one measured round trip into p's estimate. Lock-free.
func (p *peer) observe(d time.Duration) {
	if d <= 0 {
		d = 1 // a clock granularity artifact; keep the sample countable
	}
	p.rtt.Observe(float64(d), rttAlpha)
}

// estimate returns p's smoothed RTT; false while nothing was measured, or
// for the nil record of an address never reached. Lock-free.
func (p *peer) estimate() (time.Duration, bool) {
	if p == nil {
		return 0, false
	}
	v, n := p.rtt.Load()
	return time.Duration(v), n > 0
}

// suspect reports whether p's breaker is currently not closed; the nil
// record of an address never reached is not suspect.
func (p *peer) suspect() bool { return p != nil && p.state.Load() != bkClosed }

// probeDue reports whether p's breaker is open with its cooldown over: a
// call made now would be admitted as the probe.
func (p *peer) probeDue() bool {
	if p.state.Load() != bkOpen {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.Load() == bkOpen && !time.Now().Before(p.probeAt)
}

// breakerAllow consults p's breaker before any network I/O. A closed
// breaker admits the call; an open one past its cooldown moves to
// half-open and admits this single call as the probe; anything else fails
// fast with ErrPeerSuspect.
func (p *peer) breakerAllow(n *Node) error {
	if p.state.Load() == bkClosed {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch state := p.state.Load(); {
	case state == bkClosed:
		return nil
	case state == bkOpen && !time.Now().Before(p.probeAt):
		p.state.Store(bkHalfOpen)
		n.ctr.breakerProbes.Inc()
		return nil
	}
	n.ctr.breakerFastfail.Inc()
	return fmt.Errorf("%w: %s", ErrPeerSuspect, p.addr)
}

// breakerResult records the outcome of an exchange with p. Success closes
// the breaker and forgets the failures; failures accumulate and trip it at
// SuspicionThreshold, or re-open it immediately from half-open. abandoned
// marks a failure caused by the caller giving up: no evidence against the
// peer, but if the call was the half-open probe nothing else leaves that
// state, so the breaker goes back to open, a probe due at once.
func (p *peer) breakerResult(n *Node, err error, abandoned bool) {
	if errors.Is(err, ErrPeerSuspect) {
		return // a fast-fail is not fresh evidence
	}
	if (err == nil || abandoned) && p.fails.Load() == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	state := p.state.Load()
	switch {
	case err == nil:
		if state != bkClosed {
			p.state.Store(bkClosed)
			n.ctr.breakerCloses.Inc()
			n.logf("peer %s healthy again; breaker closed", p.addr)
		}
		p.fails.Store(0)
		return
	case abandoned:
		if state == bkHalfOpen {
			p.state.Store(bkOpen)
			p.probeAt = time.Now()
		}
		return
	}
	fails := p.fails.Add(1)
	if state == bkHalfOpen || int(fails) >= n.cfg.SuspicionThreshold {
		if state != bkOpen {
			n.ctr.breakerTrips.Inc()
			n.logf("peer %s suspect after %d consecutive failures", p.addr, fails)
		}
		p.state.Store(bkOpen)
		p.probeAt = time.Now().Add(n.cfg.SuspicionCooldown)
	}
}

// PeerRTT is one peer's smoothed round-trip estimate as surfaced by
// Stats: the EWMA over the node's own exchanges with it (no probe
// traffic), how many exchanges fed it, and whether the peer's circuit
// breaker currently marks it suspect.
type PeerRTT struct {
	Addr    string
	RTT     time.Duration
	Samples uint32
	Suspect bool
}

// peerStats snapshots the table for Stats in one walk that reads each
// record's suspicion once: the sorted addresses of the suspect peers, and
// the measured peers ascending by RTT (address as tiebreak), whose Suspect
// flags therefore agree with the list. Lock-free.
func (t *peerTable) peerStats() (suspects []string, rtts []PeerRTT) {
	t.each(func(p *peer) {
		suspect := p.suspect()
		if suspect {
			suspects = append(suspects, p.addr)
		}
		if val, cnt := p.rtt.Load(); cnt > 0 {
			rtts = append(rtts, PeerRTT{Addr: p.addr, RTT: time.Duration(val), Samples: cnt, Suspect: suspect})
		}
	})
	sort.Strings(suspects)
	sort.Slice(rtts, func(i, j int) bool {
		if rtts[i].RTT != rtts[j].RTT {
			return rtts[i].RTT < rtts[j].RTT
		}
		return rtts[i].Addr < rtts[j].Addr
	})
	return suspects, rtts
}
