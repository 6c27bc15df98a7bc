// Package simnet provides the discrete-event simulation substrate for the
// Bristle evaluation: a virtual clock with an event heap, and an underlay
// network model in which hosts attach to stub routers of a transit-stub
// topology, move between attachment points, and exchange messages whose
// cost is a shortest-path link-weight sum (Section 4 of the paper).
//
// The simulator is deliberately single-threaded: experiments are
// deterministic functions of (topology seed, workload seed), which makes
// every figure in EXPERIMENTS.md reproducible bit-for-bit.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Inf is a time later than any event.
const Inf = Time(math.MaxFloat64)

type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Simulator is a discrete-event executor. The zero value is ready to use.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	ran    uint64
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Schedule runs fn at now+delay. Negative delays are clamped to zero
// (the event runs after currently queued same-time events).
func (s *Simulator) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("simnet: Schedule(nil)")
	}
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// At runs fn at the absolute virtual time t (clamped to now).
func (s *Simulator) At(t Time, fn func()) {
	s.Schedule(t-s.now, fn)
}

// Step executes the next event, if any, and reports whether one ran.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(event)
	s.now = e.at
	s.ran++
	e.fn()
	return true
}

// Run executes events until the queue drains or the clock passes limit.
// It returns the number of events executed.
func (s *Simulator) Run(limit Time) uint64 {
	start := s.ran
	for len(s.events) > 0 && s.events[0].at <= limit {
		s.Step()
	}
	if s.now < limit && limit != Inf {
		s.now = limit
	}
	return s.ran - start
}

// RunAll executes every queued event (including ones scheduled while
// running) and returns the count. Use only with workloads that quiesce.
func (s *Simulator) RunAll() uint64 {
	return s.Run(Inf)
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.events) }

// Executed returns the total number of events run so far.
func (s *Simulator) Executed() uint64 { return s.ran }

// String summarizes simulator state for logs.
func (s *Simulator) String() string {
	return fmt.Sprintf("simnet.Simulator{now=%v pending=%d ran=%d}", s.now, len(s.events), s.ran)
}
