package live

// This file is the per-peer RTT estimator behind proximity-aware
// replica ordering. Estimates are fed exclusively from the timing of
// exchanges the node already makes (rpc.go times every successful
// attempt) — zero probe traffic — and are kept in a table sharded like
// the breaker table, with reads following the same atomic-pointer
// discipline as the membership views: one pointer load plus one atomic
// EWMA load, no lock, no allocation. Writers only take the shard mutex
// to admit a previously unseen peer (a copy-on-write map clone); the
// steady-state sample just CASes the peer's packed EWMA word.

import (
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

// rttExploreFloor is the exploration scale used when no candidate has a
// measured RTT yet: unknown peers draw a jittered effective RTT in
// [0, floor] so the very first fan-outs spread across replicas.
const rttExploreFloor = time.Millisecond

// rttView is one immutable addr → estimator map. The *metrics.EWMA
// values are shared across views (an estimator lives as long as the
// peer), so cloning the map on admit does not reset anyone's estimate.
type rttView struct {
	m map[string]*metrics.EWMA
}

type rttShard struct {
	mu   sync.Mutex // serializes admissions only
	view atomic.Pointer[rttView]
}

// rttTable is the sharded per-peer RTT estimator table.
type rttTable struct {
	shards [stateShards]rttShard
}

func (t *rttTable) init() {
	for i := range t.shards {
		t.shards[i].view.Store(&rttView{m: make(map[string]*metrics.EWMA)})
	}
}

// observe folds one measured round trip into addr's estimator. The
// steady state (peer already admitted) is lock-free and allocation-free.
func (t *rttTable) observe(addr string, d time.Duration) {
	if d <= 0 {
		d = 1 // a clock granularity artifact; keep the sample countable
	}
	sh := &t.shards[addrShard(addr)]
	if e, ok := sh.view.Load().m[addr]; ok {
		e.Observe(float64(d), rttAlpha)
		return
	}
	sh.mu.Lock()
	v := sh.view.Load()
	e, ok := v.m[addr]
	if !ok {
		nm := make(map[string]*metrics.EWMA, len(v.m)+1)
		for k, est := range v.m {
			nm[k] = est
		}
		e = &metrics.EWMA{}
		nm[addr] = e
		sh.view.Store(&rttView{m: nm})
	}
	sh.mu.Unlock()
	e.Observe(float64(d), rttAlpha)
}

// estimate returns addr's smoothed RTT and sample count. Lock-free.
func (t *rttTable) estimate(addr string) (time.Duration, uint32, bool) {
	e, ok := t.shards[addrShard(addr)].view.Load().m[addr]
	if !ok {
		return 0, 0, false
	}
	v, n := e.Load()
	if n == 0 {
		return 0, 0, false
	}
	return time.Duration(v), n, true
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

// peerRTTs snapshots the RTT table for Stats, ascending by RTT (address
// as tiebreak). Reads are lock-free; only the suspect flags take a
// breaker shard lock, once per peer.
func (n *Node) peerRTTs() []PeerRTT {
	var out []PeerRTT
	for i := range n.rtt.shards {
		v := n.rtt.shards[i].view.Load()
		for addr, e := range v.m {
			val, cnt := e.Load()
			if cnt == 0 {
				continue
			}
			out = append(out, PeerRTT{Addr: addr, RTT: time.Duration(val), Samples: cnt, Suspect: n.suspect(addr)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RTT != out[j].RTT {
			return out[i].RTT < out[j].RTT
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}
