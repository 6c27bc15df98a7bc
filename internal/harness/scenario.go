package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
)

// Op is one typed scenario step. Ops are applied sequentially by Run;
// their String form is the canonical schedule representation (the
// determinism contract: same seed → same strings).
type Op interface {
	Apply(c *Cluster) error
	String() string
}

// Publish pushes Node's location to its replicas.
type Publish struct{ Node string }

func (o Publish) Apply(c *Cluster) error { return c.Publish(o.Node) }
func (o Publish) String() string         { return "publish " + o.Node }

// PublishAll pushes every live mobile node's location concurrently —
// the bulk prologue for large-fabric scenarios, where one Publish op
// per node would dominate the schedule.
type PublishAll struct{}

func (PublishAll) Apply(c *Cluster) error { return c.PublishAll() }
func (PublishAll) String() string         { return "publish-all" }

// Move rebinds a mobile node to a fresh attachment point.
type Move struct{ Node string }

func (o Move) Apply(c *Cluster) error { return c.Move(o.Node) }
func (o Move) String() string         { return "move " + o.Node }

// Own adds resource keys to Node's owned set: subsequent publishes and
// moves carry one record per owned key in the node's publish batch.
type Own struct {
	Node string
	Keys []hashkey.Key
}

func (o Own) Apply(c *Cluster) error { return c.OwnKeys(o.Node, o.Keys...) }
func (o Own) String() string         { return fmt.Sprintf("own %s ×%d", o.Node, len(o.Keys)) }

// Crash kills a node; its address goes dark until Restart.
type Crash struct{ Node string }

func (o Crash) Apply(c *Cluster) error { return c.Crash(o.Node) }
func (o Crash) String() string         { return "crash " + o.Node }

// Restart reboots a crashed node at its previous address.
type Restart struct{ Node string }

func (o Restart) Apply(c *Cluster) error { return c.Restart(o.Node) }
func (o Restart) String() string         { return "restart " + o.Node }

// Partition installs a named bidirectional split between groups A and B.
type Partition struct {
	Name string
	A, B []string
}

func (o Partition) Apply(c *Cluster) error { return c.Partition(o.Name, o.A, o.B) }
func (o Partition) String() string {
	return fmt.Sprintf("partition %s %v|%v", o.Name, o.A, o.B)
}

// Heal removes a named partition.
type Heal struct{ Name string }

func (o Heal) Apply(c *Cluster) error { return c.Heal(o.Name) }
func (o Heal) String() string         { return "heal " + o.Name }

// Register records Watcher's interest in Target's movement.
type Register struct{ Watcher, Target string }

func (o Register) Apply(c *Cluster) error { return c.Register(o.Watcher, o.Target) }
func (o Register) String() string         { return "register " + o.Watcher + "→" + o.Target }

// Resolve resolves Target from From. With Within > 0 it retries until
// the answer is Target's *current* address or the deadline lapses; an
// address that was never bound to the target fails immediately (cache
// corruption, not staleness). With Within == 0 a single attempt is made
// and only the never-bound check applies — a workload op under faults,
// where one attempt may legitimately time out or serve a stale lease.
type Resolve struct {
	From, Target string
	Within       time.Duration
}

func (o Resolve) Apply(c *Cluster) error {
	check := func() error { return resolveOnce(c, o.From, o.Target, o.Within > 0) }
	if o.Within > 0 {
		return Eventually(o.Within, check)
	}
	if err := check(); err != nil && errors.Is(err, errNeverBound) {
		return err // corruption is fatal even for best-effort workload
	}
	return nil
}

func (o Resolve) String() string {
	if o.Within > 0 {
		return fmt.Sprintf("resolve %s→%s within %v", o.From, o.Target, o.Within)
	}
	return fmt.Sprintf("resolve %s→%s", o.From, o.Target)
}

var errNeverBound = errors.New("resolved an address never bound to the target")

// resolveOnce performs one resolve and classifies the answer. wantFresh
// requires the target's current address; otherwise any historically
// valid address passes (stale within lease is correct behaviour).
func resolveOnce(c *Cluster, from, target string, wantFresh bool) error {
	return resolveKeyOnce(c, from, target, c.Key(target), wantFresh)
}

// resolveKeyOnce is resolveOnce for any key target publishes: its own or
// one it owns.
func resolveKeyOnce(c *Cluster, from, target string, key hashkey.Key, wantFresh bool) error {
	addr, err := c.ResolveKey(from, key)
	if err != nil {
		return fmt.Errorf("resolve %s→%s (%v): %w", from, target, key, err)
	}
	if !c.EverBound(key, addr) {
		return fmt.Errorf("resolve %s→%s (%v): %w: %q", from, target, key, errNeverBound, addr)
	}
	if wantFresh && addr != c.Addr(target) {
		return fmt.Errorf("resolve %s→%s (%v): stale %q, current %q", from, target, key, addr, c.Addr(target))
	}
	return nil
}

// Storm launches Resolvers concurrent resolvers of Target through From's
// resolve path — the flash-crowd workload. Every resolver must converge
// on the target's current address within the deadline.
type Storm struct {
	From, Target string
	Resolvers    int
	Within       time.Duration
}

func (o Storm) Apply(c *Cluster) error {
	within := o.Within
	if within <= 0 {
		within = 10 * time.Second
	}
	var wg sync.WaitGroup
	errs := make(chan error, o.Resolvers)
	for i := 0; i < o.Resolvers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Eventually(within, func() error {
				return resolveOnce(c, o.From, o.Target, true)
			}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("storm: %w", err)
	}
	return nil
}

func (o Storm) String() string {
	return fmt.Sprintf("storm %s→%s ×%d", o.From, o.Target, o.Resolvers)
}

// Gossip runs anti-entropy rounds across every live node.
type Gossip struct{ Rounds int }

func (o Gossip) Apply(c *Cluster) error { return c.Gossip(o.Rounds) }
func (o Gossip) String() string         { return fmt.Sprintf("gossip ×%d", o.Rounds) }

// Settle sleeps, letting leases lapse and background loops tick.
type Settle struct{ For time.Duration }

func (o Settle) Apply(c *Cluster) error { time.Sleep(o.For); return nil }
func (o Settle) String() string         { return fmt.Sprintf("settle %v", o.For) }

// Try wraps an op whose failure is tolerated — workload attempted under
// active faults, where the invariants at quiescence are the real
// assertion. The failure is still narrated.
type Try struct{ Op Op }

func (o Try) Apply(c *Cluster) error {
	if err := o.Op.Apply(c); err != nil {
		c.logf("tolerated: %s: %v", o.Op, err)
	}
	return nil
}

func (o Try) String() string { return "try(" + o.Op.String() + ")" }

// ScheduleString renders a schedule one op per line — the form the
// determinism tests compare and failure output prints.
func ScheduleString(ops []Op) string {
	lines := make([]string, len(ops))
	for i, op := range ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}

// Scenario is one scripted run: a cluster, a schedule, and the
// invariants that must hold along the way and at quiescence.
type Scenario struct {
	Name    string
	Cluster Config
	Ops     []Op
	// Checkers defaults to DefaultCheckers() when nil.
	Checkers []Checker
	// Quiesce is an extra settle before the quiescence checks.
	Quiesce time.Duration
}

// Run executes the scenario and fails t with the reproducing seed and a
// full state dump on any violation.
func Run(t testing.TB, sc Scenario) {
	t.Helper()
	if err := Execute(sc, t.Logf); err != nil {
		t.Fatalf("scenario %q failed (reproduce with seed %d):\n%v", sc.Name, sc.Cluster.Seed, err)
	}
}

// Execute runs the scenario outside any testing context (the soak wraps
// it to control failure reporting). The returned error carries the op
// that failed, the violated invariant, and the cluster state dump.
func Execute(sc Scenario, logf func(format string, args ...interface{})) error {
	checkers := sc.Checkers
	if checkers == nil {
		checkers = DefaultCheckers()
	}
	cfg := sc.Cluster
	if cfg.Logf == nil {
		cfg.Logf = logf
	}
	c, err := New(cfg)
	if err != nil {
		return err
	}
	defer c.Shutdown()

	fail := func(stage string, err error) error {
		return fmt.Errorf("%s: %w\n--- cluster state ---\n%s", stage, err, c.DumpState())
	}
	for i, op := range sc.Ops {
		if logf != nil {
			logf("harness: step %d/%d: %s", i+1, len(sc.Ops), op)
		}
		if err := op.Apply(c); err != nil {
			return fail(fmt.Sprintf("step %d (%s)", i+1, op), err)
		}
		for _, ck := range checkers {
			if err := ck.AfterStep(c, op); err != nil {
				return fail(fmt.Sprintf("invariant %s after step %d (%s)", ck.Name(), i+1, op), err)
			}
		}
	}

	// Quiescence: faults may stay on, but splits end — a partitioned
	// network has no global invariants to check.
	c.HealAll()
	if sc.Quiesce > 0 {
		time.Sleep(sc.Quiesce)
	}
	for _, ck := range checkers {
		if err := ck.AtQuiescence(c); err != nil {
			return fail("invariant "+ck.Name()+" at quiescence", err)
		}
	}
	if err := c.Shutdown(); err != nil {
		return fail("shutdown", err)
	}
	for _, ck := range checkers {
		if err := ck.AfterShutdown(c); err != nil {
			return fail("invariant "+ck.Name()+" after shutdown", err)
		}
	}
	return nil
}
