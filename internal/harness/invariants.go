package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bristle/internal/hashkey"
)

// Checker is one pluggable invariant. AfterStep runs after every applied
// op (cheap, monotone checks — background goroutines are still mutating
// the world); AtQuiescence runs once the schedule is done and every
// partition is healed, with the cluster still serving; AfterShutdown
// runs after every node closed and the goroutine count settled.
type Checker interface {
	Name() string
	AfterStep(c *Cluster, op Op) error
	AtQuiescence(c *Cluster) error
	AfterShutdown(c *Cluster) error
}

// DefaultCheckers returns the four core invariants: resolvability,
// update delivery, goroutine-leak-free shutdown, counter conservation.
func DefaultCheckers() []Checker {
	return []Checker{
		&Resolvability{},
		&UpdateDelivery{},
		&NoLeaks{},
		&CounterConservation{},
	}
}

// NopChecker is an embeddable base whose hooks all pass.
type NopChecker struct{}

func (NopChecker) AfterStep(*Cluster, Op) error { return nil }
func (NopChecker) AtQuiescence(*Cluster) error  { return nil }
func (NopChecker) AfterShutdown(*Cluster) error { return nil }

// CheckFunc adapts plain functions into a Checker for scenario-specific
// assertions (nil hooks pass).
type CheckFunc struct {
	Label    string
	Step     func(c *Cluster, op Op) error
	Quiesce  func(c *Cluster) error
	Shutdown func(c *Cluster) error
}

func (f CheckFunc) Name() string { return f.Label }
func (f CheckFunc) AfterStep(c *Cluster, op Op) error {
	if f.Step == nil {
		return nil
	}
	return f.Step(c, op)
}
func (f CheckFunc) AtQuiescence(c *Cluster) error {
	if f.Quiesce == nil {
		return nil
	}
	return f.Quiesce(c)
}
func (f CheckFunc) AfterShutdown(c *Cluster) error {
	if f.Shutdown == nil {
		return nil
	}
	return f.Shutdown(c)
}

// Resolvability asserts the paper's core behavioural claim: every
// published, live key stays discoverable from every live node, and the
// resolved address is the current one — or a previously valid one still
// inside its lease/staleness window, in which case retrying must
// converge on the current address before the deadline. An address that
// was never bound to the key fails immediately.
type Resolvability struct {
	NopChecker
	// Deadline bounds convergence per (resolver, key) pair. It must
	// exceed the lease TTL: a resolver legitimately serves a cached old
	// address until the lease lapses. Default 20s.
	Deadline time.Duration
	// Owned extends the claim from each target's own key to up to this
	// many of the keys it owns.
	Owned int
}

func (r *Resolvability) Name() string { return "resolvability" }

func (r *Resolvability) AtQuiescence(c *Cluster) error {
	if ps := c.ActivePartitions(); len(ps) > 0 {
		return fmt.Errorf("cannot check under active partitions %v", ps)
	}
	deadline := r.Deadline
	if deadline <= 0 {
		deadline = 20 * time.Second
	}
	live := c.LiveNames()
	targets := make([]string, 0, len(live))
	for _, target := range live {
		if c.Published(target) {
			targets = append(targets, target)
		}
	}
	// Event-budgeted: at production scale the full (target, resolver)
	// product is O(cluster²); the budget samples it deterministically from
	// the cluster seed (0 = exhaustive).
	for _, p := range c.samplePairs("resolvability", len(targets), len(live), c.CheckBudget()) {
		target, from := targets[p[0]], live[p[1]]
		if from == target {
			continue
		}
		keys := append([]hashkey.Key{c.Key(target)}, firstOf(c.Owned(target), r.Owned)...)
		for _, key := range keys {
			err := Eventually(deadline, func() error {
				return resolveKeyOnce(c, from, target, key, true)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// firstOf returns at most n of keys.
func firstOf(keys []hashkey.Key, n int) []hashkey.Key {
	return keys[:min(n, len(keys))]
}

// UpdateDelivery asserts the LDT contract: a node holding a live
// registration on a mover observes the mover's final address through
// pushed updates. Each push is best-effort per transmission, so the
// checker renews interest (re-register — which also repairs a
// registration the mover lost by crashing) and re-pushes until the
// update lands or the deadline lapses, exactly the refresh loop a real
// registrant runs.
type UpdateDelivery struct {
	NopChecker
	// Deadline bounds convergence per (watcher, mover) pair. Default 20s.
	Deadline time.Duration
}

func (u *UpdateDelivery) Name() string { return "update-delivery" }

func (u *UpdateDelivery) AtQuiescence(c *Cluster) error {
	if ps := c.ActivePartitions(); len(ps) > 0 {
		return fmt.Errorf("cannot check under active partitions %v", ps)
	}
	deadline := u.Deadline
	if deadline <= 0 {
		deadline = 20 * time.Second
	}
	type pair struct{ target, watcher string }
	var pairs []pair
	for _, target := range c.LiveNames() {
		if c.Moves(target) == 0 {
			continue
		}
		for _, watcher := range c.Watchers(target) {
			if c.Alive(watcher) {
				pairs = append(pairs, pair{target, watcher})
			}
		}
	}
	for _, idx := range c.samplePairs("update-delivery", len(pairs), 1, c.CheckBudget()) {
		target, watcher := pairs[idx[0]].target, pairs[idx[0]].watcher
		err := Eventually(deadline, func() error {
			final := c.Addr(target)
			if got := c.Observed(watcher, target); got == final {
				return nil
			}
			if err := c.Register(watcher, target); err != nil {
				return err
			}
			if err := c.Node(target).UpdateRegistryContext(c.opCtxDo()); err != nil {
				return err
			}
			time.Sleep(50 * time.Millisecond)
			if got := c.Observed(watcher, target); got != final {
				return fmt.Errorf("watcher %s observed %q for %s, want %q", watcher, got, target, final)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("update delivery %s→%s: %w", target, watcher, err)
		}
	}
	return nil
}

// CounterConservation asserts the metrics tell a consistent story:
// every publish-ingested record is classified as accepted or
// stale-rejected, and every received update as applied or stale-rejected
// (≤ while work is in flight, == once the world is at rest). The pool
// gauges must return to zero after Close. A cache lookup needs no law
// here: loccache.lookups is the total of hit and miss, so it partitions
// by construction, and loccache's own tests count their Lookup calls
// against hit+miss.
type CounterConservation struct{ NopChecker }

func (CounterConservation) Name() string { return "counter-conservation" }

// conservationLaws are the "every input is classified exactly once"
// pairs: the classified sum may lag its input counter mid-flight (the
// input bumps first inside one handler) but can never lead it, and the
// two meet once the world is at rest.
func conservationLaws(c *Cluster, atRest bool) error {
	laws := []struct {
		input    string
		outcomes []string
	}{
		{"publish.records", []string{"publish.accepted", "publish.stale_rejected"}},
		{"updates.received", []string{"updates.applied", "updates.stale_rejected"}},
	}
	for _, law := range laws {
		sum, in := c.Counters.Sum(law.outcomes...), c.Counters.Get(law.input)
		if sum > in {
			return fmt.Errorf("outcomes of %s sum to %d, exceeding the %d inputs", law.input, sum, in)
		}
		if atRest && sum != in {
			return fmt.Errorf("outcomes of %s sum to %d != %d inputs at rest", law.input, sum, in)
		}
	}
	return nil
}

func (CounterConservation) AfterStep(c *Cluster, op Op) error {
	return conservationLaws(c, false)
}

func (CounterConservation) AfterShutdown(c *Cluster) error {
	// Detached refresh flights and duplicated frames may still be landing;
	// retry briefly before declaring the books unbalanced.
	err := Eventually(5*time.Second, func() error {
		return conservationLaws(c, true)
	})
	if err != nil {
		return err
	}
	for _, g := range []string{"pool.sessions", "pool.inflight"} {
		if v := c.Gauges.Get(g); v != 0 {
			return fmt.Errorf("gauge %s = %d after shutdown, want 0 (non-zero: %v)", g, v, c.Gauges.NonZero())
		}
	}
	return nil
}

// NoResurrection asserts the epoch ordering the update paths enforce:
// once any node has learned a mobile target's bind #n (through a pushed
// update or a cached discovery), no later observation at that node may
// regress to bind #m < n — a duplicated or delayed frame must never
// resurrect a dead address. It probes only local state (the resolve
// cache and the drained update stream), so probing is itself free of
// network side effects and safe to run after every step while frames
// are still in flight — which is exactly when a resurrection would slip
// through.
//
// The invariant is sound because both sinks keep epoch memory: the
// location cache rejects older-epoch writes even for entries past their
// lease (expiry hides an entry, it does not forget its epoch), and
// handleUpdate tracks the newest epoch seen per subject for the node's
// lifetime.
type NoResurrection struct {
	NopChecker
	// Owned extends the probe from each mover's own key to up to this many
	// of the keys it owns, as the observers' caches hold them.
	Owned int

	mu   sync.Mutex
	seen map[string]int // observation point → highest bind order seen
}

func (r *NoResurrection) Name() string { return "no-resurrection" }

func (r *NoResurrection) AfterStep(c *Cluster, op Op) error { return r.probe(c) }
func (r *NoResurrection) AtQuiescence(c *Cluster) error     { return r.probe(c) }

func (r *NoResurrection) probe(c *Cluster) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = make(map[string]int)
	}
	var targets []string
	for _, target := range c.Names() {
		if c.Mobile(target) && c.Published(target) {
			targets = append(targets, target)
		}
	}
	live := c.LiveNames()
	// Event-budgeted: the probe runs after every step, so the full
	// (target, observer) product would make each step O(cluster²). The
	// seed-deterministic sample keeps the per-point monotone records
	// meaningful across steps.
	for _, p := range c.samplePairs("no-resurrection", len(targets), len(live), c.CheckBudget()) {
		target, from := targets[p[0]], live[p[1]]
		if from == target {
			continue
		}
		key := c.Key(target)
		for _, k := range append([]hashkey.Key{key}, firstOf(c.Owned(target), r.Owned)...) {
			if addr, ok := c.Node(from).CachedAddr(k); ok {
				if err := r.observe(c, "cache "+from, target, k, addr); err != nil {
					return err
				}
			}
		}
		if addr := c.Observed(from, target); addr != "" {
			if err := r.observe(c, "push "+from, target, key, addr); err != nil {
				return err
			}
		}
	}
	return nil
}

// observe folds one sighting of target at addr into the monotone record
// for the observation point, failing on any walk backwards.
func (r *NoResurrection) observe(c *Cluster, point, target string, key hashkey.Key, addr string) error {
	order, bound := c.BindOrder(key, addr)
	if !bound {
		return fmt.Errorf("%s holds %q for %s: never a bound address", point, addr, target)
	}
	id := fmt.Sprintf("%s|%s|%v", point, target, key)
	if prev := r.seen[id]; order < prev {
		return fmt.Errorf("%s resurrected %s's bind #%d (%q) after seeing bind #%d",
			point, target, order, addr, prev)
	} else if order > prev {
		r.seen[id] = order
	}
	return nil
}

// NoLeaks asserts the cluster shut down without stranding goroutines,
// with two books balanced in order of strictness:
//
//  1. Exactly zero update drainers remain. The harness counts every
//     drainUpdates start and exit, so this check has no slack at all —
//     it is what catches a drainer leaked by a crash/restart race, which
//     the ±slack process-count check below could hide.
//  2. The process goroutine count returns to the pre-cluster baseline
//     (±slack for runtime helpers).
type NoLeaks struct {
	NopChecker
	// Settle bounds how long to wait for stragglers (detached flights
	// live up to a retry budget past Close). Default 10s.
	Settle time.Duration
}

func (*NoLeaks) Name() string { return "no-goroutine-leaks" }

func (l *NoLeaks) AfterShutdown(c *Cluster) error {
	settle := l.Settle
	if settle <= 0 {
		settle = 10 * time.Second
	}
	if n := c.ActiveDrainers(); n != 0 {
		return fmt.Errorf("%d update drainers alive after shutdown, want exactly 0", n)
	}
	err := Eventually(settle, func() error {
		if n := runtime.NumGoroutine(); n > c.baseGoroutines+goroutineSlack {
			return fmt.Errorf("%d goroutines alive, baseline %d", n, c.baseGoroutines)
		}
		return nil
	})
	if err == nil {
		return nil
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return errors.Join(err, fmt.Errorf("goroutine dump:\n%s", buf))
}
