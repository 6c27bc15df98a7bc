package harness_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bristle/internal/harness"
	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/transport"
)

// maintain returns the standard background-maintenance profile the
// scenario suite runs under: gossip, renewal faster than the lease, and
// suspect probing.
func maintain() *live.MaintainConfig {
	return &live.MaintainConfig{
		GossipInterval: 300 * time.Millisecond,
		RenewInterval:  400 * time.Millisecond,
		ProbeInterval:  250 * time.Millisecond,
	}
}

// TestScenarios is the table-driven acceptance suite: each entry scripts
// one mobility/fault story and every entry is judged by the same four
// invariants (plus scenario-specific checks). All run under -race.
func TestScenarios(t *testing.T) {
	for _, sc := range scenarioTable() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			harness.Run(t, sc)
		})
	}
}

// scenarioTable is the acceptance suite's table, run in real time by
// TestScenarios and in virtual time by TestBubbleScenarios.
func scenarioTable() []harness.Scenario {
	table := []harness.Scenario{
		ringChurn(),
		flashCrowdResolveStorm(),
		partitionDuringRebind(),
		registryUnderMoverCrash(),
		batchedMoverManyKeys(),
		ownedKeysThroughReplicaRestart(),
		rapidMovesUnderDuplication(),
		triedMoveUnderPartition(),
		// Before GenSchedule tried the moves it schedules under an open
		// partition, this seed's step 12 (move m2 with [m3 m2] islanded
		// from every stationary node) failed on every run.
		pinnedSoak(1790557275300497660, 25),
		// Before GenSchedule stopped restarting nodes under an open
		// partition, this seed's step 19 (restart m2, islanded from the
		// node it rejoins through) was refused on every run.
		pinnedSoak(1790809329530286746, 25),
	}
	// Before Cluster.Register issued a register again when it ran out of
	// attempts under frame loss, a register in each of these seeds lost a
	// frame of every one of its six attempts to the soak's 10 % drop and
	// failed, on every run. A soak schedule registers only in its
	// prologue, the first 10 ops.
	for _, seed := range []int64{1140, 5922, 6299, 6453, 8758, 1792421131077562949} {
		table = append(table, pinnedSoak(seed, 10))
	}
	return table
}

// ringChurn churns the ring while mobiles keep moving: a stationary
// replica crashes and reboots, a mobile crashes mid-life and comes back,
// all under 15% frame loss with maintenance renewing leases throughout.
func ringChurn() harness.Scenario {
	return harness.Scenario{
		Name: "ring-churn",
		Cluster: harness.Config{
			Seed:        101,
			Stationary:  []string{"s1", "s2", "s3", "s4", "s5"},
			Mobile:      []string{"m1", "m2"},
			LeaseTTL:    2 * time.Second,
			Replication: 3,
			Faults:      transport.FaultConfig{Drop: 0.15, DelayMax: 20 * time.Millisecond},
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Publish{Node: "m2"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Register{Watcher: "s2", Target: "m1"},
			harness.Register{Watcher: "s3", Target: "m2"},
			harness.Move{Node: "m1"},
			harness.Crash{Node: "s4"},
			harness.Move{Node: "m2"},
			harness.Resolve{From: "s1", Target: "m2", Within: 10 * time.Second},
			harness.Restart{Node: "s4"},
			harness.Crash{Node: "m2"},
			harness.Settle{For: 300 * time.Millisecond},
			harness.Restart{Node: "m2"},
			harness.Move{Node: "m2"},
			harness.Gossip{Rounds: 2},
		},
		Quiesce: 200 * time.Millisecond,
	}
}

// flashCrowdResolveStorm slams one freshly published mobile with a storm
// of concurrent resolvers through a single node: every resolver must get
// the right address while singleflight coalescing keeps the number of
// network discoveries far below the number of callers.
func flashCrowdResolveStorm() harness.Scenario {
	const stormers = 48
	return harness.Scenario{
		Name: "flash-crowd-resolve-storm",
		Cluster: harness.Config{
			Seed:        202,
			Stationary:  []string{"s1", "s2", "s3"},
			Mobile:      []string{"m1"},
			LeaseTTL:    30 * time.Second,
			Replication: 2,
			Faults:      transport.FaultConfig{Drop: 0.10, DelayMax: 10 * time.Millisecond},
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Storm{From: "s1", Target: "m1", Resolvers: stormers, Within: 15 * time.Second},
		},
		Checkers: append(harness.DefaultCheckers(), harness.CheckFunc{
			Label: "storm-coalesced",
			Quiesce: func(c *harness.Cluster) error {
				d := c.Counters.Get("resolve.discoveries")
				if d == 0 || d > stormers/4 {
					return fmt.Errorf("resolve.discoveries = %d for %d resolvers; want coalesced to a handful", d, stormers)
				}
				return nil
			},
		}),
	}
}

// partitionDuringRebind cuts two stationary nodes (one of them a
// registered watcher) away while a mobile rebinds, then heals: the
// formerly islanded nodes must converge on the post-move address, and
// the watcher must still observe the move through the LDT.
func partitionDuringRebind() harness.Scenario {
	island := []string{"s4", "s5"}
	mainland := []string{"s1", "s2", "s3", "m1"}
	return harness.Scenario{
		Name: "partition-during-rebind",
		Cluster: harness.Config{
			Seed:        303,
			Stationary:  []string{"s1", "s2", "s3", "s4", "s5"},
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 3,
			Faults:      transport.FaultConfig{Drop: 0.15, DelayMax: 20 * time.Millisecond},
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Register{Watcher: "s4", Target: "m1"},
			harness.Partition{Name: "split", A: island, B: mainland},
			harness.Move{Node: "m1"},
			harness.Resolve{From: "s2", Target: "m1", Within: 10 * time.Second},
			harness.Settle{For: 500 * time.Millisecond},
			harness.Heal{Name: "split"},
			harness.Resolve{From: "s4", Target: "m1", Within: 15 * time.Second},
		},
		Quiesce: 200 * time.Millisecond,
	}
}

// registryUnderMoverCrash crashes a mover that watchers registered with:
// the crash wipes its registry, so after the reboot the watchers'
// renewed registrations must repopulate it and the next move must reach
// them again.
func registryUnderMoverCrash() harness.Scenario {
	return harness.Scenario{
		Name: "registry-under-mover-crash",
		Cluster: harness.Config{
			Seed:        404,
			Stationary:  []string{"s1", "s2", "s3", "s4"},
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 2,
			Faults:      transport.FaultConfig{Drop: 0.10, DelayMax: 10 * time.Millisecond},
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Register{Watcher: "s2", Target: "m1"},
			harness.Move{Node: "m1"},
			harness.Crash{Node: "m1"},
			harness.Settle{For: 300 * time.Millisecond},
			harness.Restart{Node: "m1"},
			harness.Move{Node: "m1"},
		},
		Checkers: append(harness.DefaultCheckers(), harness.CheckFunc{
			Label: "registry-repopulated",
			// Runs after the update-delivery checker re-registered the
			// watchers with the rebooted mover.
			Quiesce: func(c *harness.Cluster) error {
				if got := len(c.Node("m1").Registry()); got == 0 {
					return fmt.Errorf("mover registry empty after reboot + renewed interest")
				}
				return nil
			},
		}),
		Quiesce: 200 * time.Millisecond,
	}
}

// batchedMoverManyKeys gives one mobile node a thousand owned resource
// keys and moves it twice: every record must follow the mover (sampled
// via late binding from other nodes), and the batched publish must keep
// the RPC bill O(replica groups) — a small fraction of the record count
// — rather than O(keys).
func batchedMoverManyKeys() harness.Scenario {
	const ownedKeys = 1000
	keys := make([]hashkey.Key, ownedKeys)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("res-%d", i))
	}
	// Sample a spread of owned keys for the quiescence resolve check.
	sample := []hashkey.Key{keys[0], keys[1], keys[250], keys[500], keys[999]}
	return harness.Scenario{
		Name: "batched-mover-many-keys",
		Cluster: harness.Config{
			Seed:        505,
			Stationary:  []string{"s1", "s2", "s3"},
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 2,
			Faults:      transport.FaultConfig{Drop: 0.05, DelayMax: 10 * time.Millisecond},
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Own{Node: "m1", Keys: keys},
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Move{Node: "m1"},
			harness.Move{Node: "m1"},
			harness.Resolve{From: "s2", Target: "m1", Within: 10 * time.Second},
		},
		Checkers: append(harness.DefaultCheckers(),
			&harness.NoResurrection{},
			harness.CheckFunc{
				Label: "owned-records-follow-the-mover",
				Quiesce: func(c *harness.Cluster) error {
					for _, key := range sample {
						key := key
						err := harness.Eventually(15*time.Second, func() error {
							addr, err := c.Node("s3").DiscoverContext(context.Background(), key)
							if err != nil {
								return err
							}
							if want := c.Addr("m1"); addr != want {
								return fmt.Errorf("owned key %v resolves to %q, mover is at %q", key, addr, want)
							}
							return nil
						})
						if err != nil {
							return err
						}
					}
					return nil
				},
			},
			harness.CheckFunc{
				Label: "publish-rpcs-stay-o-replicas",
				Quiesce: func(c *harness.Cluster) error {
					rpcs := c.Counters.Get("publish.rpcs")
					records := c.Counters.Get("publish.records")
					if rpcs == 0 || records == 0 {
						return fmt.Errorf("no batched publish traffic recorded (rpcs=%d records=%d)", rpcs, records)
					}
					// Each full publish moves ~1000 records in ~replication
					// chunk sends; renewals repeat the same shape. Anything
					// within an order of magnitude of one-RPC-per-record
					// means batching is broken.
					if rpcs*50 > records {
						return fmt.Errorf("publish.rpcs %d vs publish.records %d: not batched", rpcs, records)
					}
					return nil
				},
			}),
		Quiesce: 200 * time.Millisecond,
	}
}

// ownedKeysThroughReplicaRestart is the owner indirection's story: a
// mobile's owned keys are stored at the replicas as pointers to its
// identity record, so its moves rewrite one record per replica — and a
// replica that restarts between moves comes back holding none of them.
// The mover's next publish, after the ring has gossiped the restart,
// gives the replica everything again; until then a resolve falls over to
// the key's other replica. Every owned key, like the mover's own, must
// stay resolvable to the current address from everywhere, and no cache
// may ever walk one back.
func ownedKeysThroughReplicaRestart() harness.Scenario {
	keys := make([]hashkey.Key, 64)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("owned-%d", i))
	}
	stationary := []string{"s1", "s2", "s3", "s4"}
	// The stationary nearest m1's key is the first replica of its identity
	// record, and with 64 keys on two of four nodes holds owned records too.
	replica := stationary[0]
	for _, name := range stationary[1:] {
		if hashkey.Closer(hashkey.FromName("m1"), hashkey.FromName(name), hashkey.FromName(replica)) {
			replica = name
		}
	}
	var resolves []harness.Op
	for _, from := range []string{"s1", "s3"} {
		resolves = append(resolves, harness.Resolve{From: from, Target: "m1", Within: 10 * time.Second})
	}
	return harness.Scenario{
		Name: "owned-keys-through-replica-restart",
		Cluster: harness.Config{
			Seed:        808,
			Stationary:  stationary,
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 2,
			Maintain:    maintain(),
		},
		Ops: append([]harness.Op{
			harness.Own{Node: "m1", Keys: keys},
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s2", Target: "m1"},
			harness.Move{Node: "m1"},
			harness.Move{Node: "m1"},
			harness.Move{Node: "m1"},
			harness.Crash{Node: replica},
			harness.Move{Node: "m1"},
			harness.Restart{Node: replica},
			harness.Move{Node: "m1"},
			harness.Gossip{Rounds: 2},
			harness.Move{Node: "m1"},
		}, resolves...),
		Checkers: []harness.Checker{
			&harness.Resolvability{Owned: len(keys)},
			&harness.NoResurrection{Owned: len(keys)},
			&harness.UpdateDelivery{},
			&harness.NoLeaks{},
			&harness.CounterConservation{},
		},
		Quiesce: 200 * time.Millisecond,
	}
}

// rapidMovesUnderDuplication is the stale-resurrection regression story:
// a mobile node hops A→B→C→D with no settling while every frame may be
// duplicated and delayed (never dropped), so old-address updates keep
// arriving after new ones. The NoResurrection checker asserts no cache
// and no watcher is ever walked backwards to an earlier binding.
func rapidMovesUnderDuplication() harness.Scenario {
	return harness.Scenario{
		Name: "rapid-moves-under-duplication",
		Cluster: harness.Config{
			Seed:        606,
			Stationary:  []string{"s1", "s2", "s3"},
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 2,
			Faults:      transport.FaultConfig{Duplicate: 0.35, DelayMax: 15 * time.Millisecond},
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Register{Watcher: "s2", Target: "m1"},
			harness.Move{Node: "m1"},
			harness.Move{Node: "m1"},
			harness.Move{Node: "m1"},
			harness.Resolve{From: "s3", Target: "m1", Within: 10 * time.Second},
			harness.Move{Node: "m1"},
			harness.Settle{For: 300 * time.Millisecond},
			harness.Resolve{From: "s1", Target: "m1", Within: 10 * time.Second},
		},
		Checkers: append(harness.DefaultCheckers(), &harness.NoResurrection{}),
		Quiesce:  200 * time.Millisecond,
	}
}

// triedMoveUnderPartition islands a mobile from every stationary node and
// moves it inside a Try, the way the soak generator schedules a move
// under an open partition. The republish finds no replica and the op is
// tolerated — but the listener did swap, so the new address must enter
// the bind history: BindOrder and NoResurrection judge every later
// answer against that history, and the move after the heal has to rank
// above the one nobody heard of.
func triedMoveUnderPartition() harness.Scenario {
	tried := harness.Try{Op: harness.Move{Node: "m1"}}
	var lastAddr string
	var lastOrder int
	return harness.Scenario{
		Name: "tried-move-under-partition",
		Cluster: harness.Config{
			Seed:        707,
			Stationary:  []string{"s1", "s2", "s3"},
			Mobile:      []string{"m1"},
			LeaseTTL:    2 * time.Second,
			Replication: 2,
			Maintain:    maintain(),
		},
		Ops: []harness.Op{
			harness.Publish{Node: "m1"},
			harness.Register{Watcher: "s1", Target: "m1"},
			harness.Partition{Name: "island", A: []string{"m1"}, B: []string{"s1", "s2", "s3"}},
			tried,
			harness.Heal{Name: "island"},
			harness.Settle{For: 400 * time.Millisecond},
			harness.Move{Node: "m1"},
			harness.Resolve{From: "s2", Target: "m1", Within: 10 * time.Second},
		},
		Checkers: append(harness.DefaultCheckers(), &harness.NoResurrection{}, harness.CheckFunc{
			Label: "every-listener-swap-is-in-the-bind-history",
			Step: func(c *harness.Cluster, op harness.Op) error {
				addr := c.Addr("m1")
				order, bound := c.BindOrder(c.Key("m1"), addr)
				if !bound || (addr != lastAddr && order <= lastOrder) {
					return fmt.Errorf("after %s: m1 at %s has bind order %d (bound %v), last was %d at %s",
						op, addr, order, bound, lastOrder, lastAddr)
				}
				if op == harness.Op(tried) && (addr == lastAddr || c.Moves("m1") != 1) {
					return fmt.Errorf("the tried move did not swap the listener: still %s after %d moves", addr, c.Moves("m1"))
				}
				lastAddr, lastOrder = addr, order
				return nil
			},
		}),
		Quiesce: 200 * time.Millisecond,
	}
}

// pinnedSoak replays the soak schedule GenSchedule derives from seed as a
// table scenario: a seed that once failed stays in the suite.
func pinnedSoak(seed int64, ops int) harness.Scenario {
	cfg := harness.SoakCluster(seed)
	return harness.Scenario{
		Name:    fmt.Sprintf("soak-seed-%d", seed),
		Cluster: cfg,
		Ops:     harness.GenSchedule(cfg, rand.New(rand.NewSource(seed)), harness.SoakOptions{Ops: ops}),
		Quiesce: 200 * time.Millisecond,
	}
}

// TestAfterStepCheckAndDump exercises the failure path: a scenario whose
// scripted op references a crashed node must fail with the reproducing
// seed and a state dump, not hang or panic.
func TestAfterStepCheckAndDump(t *testing.T) {
	err := harness.Execute(harness.Scenario{
		Name: "bad-script",
		Cluster: harness.Config{
			Seed:       1,
			Stationary: []string{"s1", "s2"},
			Mobile:     []string{"m1"},
		},
		Ops: []harness.Op{
			harness.Crash{Node: "m1"},
			harness.Move{Node: "m1"}, // moving a crashed node: scripted error
		},
	}, t.Logf)
	if err == nil {
		t.Fatal("scenario with an invalid script reported success")
	}
	if !strings.Contains(err.Error(), "cluster state") {
		t.Fatalf("failure lacks state dump: %v", err)
	}
}
