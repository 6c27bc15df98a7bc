package harness

import (
	"fmt"
	"math/rand"
	"time"

	"bristle/internal/live"
	"bristle/internal/transport"
)

// SoakOptions shapes a generated schedule. The zero value is usable.
type SoakOptions struct {
	// Ops is the number of randomized body ops between the fixed
	// prologue (publish + register) and epilogue (heal + restart).
	// Default 40.
	Ops int
	// MaxCrashed caps concurrently crashed nodes; the generator also
	// never drops the live stationary population below Replication+1 or
	// crashes the last live mobile. Default 2.
	MaxCrashed int
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Ops <= 0 {
		o.Ops = 40
	}
	if o.MaxCrashed <= 0 {
		o.MaxCrashed = 2
	}
	return o
}

// GenSchedule derives a mobility/churn op schedule deterministically
// from rng: same seed and cluster config → byte-identical schedule
// (compare with ScheduleString). The generator tracks the crash and
// partition state its own ops imply, so every schedule is well-formed —
// no moving a crashed mobile, no double partitions — and ends whole:
// every partition healed, every crashed node restarted, so the
// quiescence invariants apply to the full membership.
func GenSchedule(cfg Config, rng *rand.Rand, opt SoakOptions) []Op {
	opt = opt.withDefaults()
	var ops []Op

	crashed := make(map[string]bool)
	var openPartitions []string
	partitionSeq := 0
	all := append(append([]string(nil), cfg.Stationary...), cfg.Mobile...)

	liveOf := func(names []string) []string {
		var out []string
		for _, n := range names {
			if !crashed[n] {
				out = append(out, n)
			}
		}
		return out
	}
	pick := func(names []string) string { return names[rng.Intn(len(names))] }

	// Prologue: every mobile publishes, and a couple of seeded
	// stationary watchers register interest in each.
	for _, m := range cfg.Mobile {
		ops = append(ops, Publish{Node: m})
		for _, w := range pickDistinct(rng, cfg.Stationary, 2) {
			ops = append(ops, Register{Watcher: w, Target: m})
		}
	}
	ops = append(ops, Gossip{Rounds: 1})

	for len(ops) < opt.Ops {
		liveMobiles := liveOf(cfg.Mobile)
		liveStationary := liveOf(cfg.Stationary)
		switch roll := rng.Float64(); {
		case roll < 0.30 && len(liveMobiles) > 0:
			var move Op = Move{Node: pick(liveMobiles)}
			if len(openPartitions) > 0 {
				// The split may island the mover from every stationary
				// replica: its listener still swaps (Cluster.Move records
				// the new binding either way), but the republish can find
				// nobody to store at — workload under a fault, like the
				// publishes and resolves below.
				move = Try{move}
			}
			ops = append(ops, move)

		case roll < 0.40 && len(liveMobiles) > 0:
			ops = append(ops, Try{Publish{Node: pick(liveMobiles)}})

		case roll < 0.50:
			// Crash within the safety envelope: enough stationary nodes
			// stay up to host every replica set, and one mobile survives.
			var cands []string
			if len(liveStationary) > cfg.Replication+1 {
				cands = append(cands, liveStationary...)
			}
			if len(liveMobiles) > 1 {
				cands = append(cands, liveMobiles...)
			}
			if len(crashed) >= opt.MaxCrashed || len(cands) == 0 {
				continue
			}
			victim := pick(cands)
			crashed[victim] = true
			ops = append(ops, Crash{Node: victim})

		case roll < 0.60 && len(crashed) > 0 && len(openPartitions) == 0:
			// Never under an open partition: a split between the victim and
			// the node it rejoins through refuses the join. (Nor a Try: the
			// crashed set here would then disagree with the cluster.) The
			// epilogue heals before it restarts.
			victim := pick(sortedKeys(crashed))
			delete(crashed, victim)
			ops = append(ops, Restart{Node: victim})

		case roll < 0.70 && len(openPartitions) == 0:
			// Island a random quarter of the live membership (at least
			// one node, never everyone).
			live := liveOf(all)
			n := len(live) / 4
			if n < 1 {
				n = 1
			}
			if n >= len(live) {
				continue
			}
			island := pickDistinct(rng, live, n)
			mainland := subtract(live, island)
			name := fmt.Sprintf("p%d", partitionSeq)
			partitionSeq++
			openPartitions = append(openPartitions, name)
			ops = append(ops, Partition{Name: name, A: island, B: mainland})

		case roll < 0.75 && len(openPartitions) > 0:
			name := openPartitions[0]
			openPartitions = openPartitions[1:]
			ops = append(ops, healed(name)...)

		case roll < 0.85 && len(liveMobiles) > 0:
			from := pick(liveOf(all))
			ops = append(ops, Try{Resolve{From: from, Target: pick(liveMobiles)}})

		case roll < 0.90 && len(liveMobiles) > 0 && len(liveStationary) > 0:
			ops = append(ops, Try{Storm{
				From:      pick(liveStationary),
				Target:    pick(liveMobiles),
				Resolvers: 8 + rng.Intn(24),
				Within:    10 * time.Second,
			}})

		case roll < 0.95:
			ops = append(ops, Gossip{Rounds: 1})

		default:
			ops = append(ops, Settle{For: 50 * time.Millisecond})
		}
	}

	// Epilogue: make the world whole so quiescence invariants cover the
	// full membership.
	for _, name := range openPartitions {
		ops = append(ops, healed(name)...)
	}
	for _, victim := range sortedKeys(crashed) {
		ops = append(ops, Restart{Node: victim})
	}
	ops = append(ops, Gossip{Rounds: 2})
	return ops
}

// healed ends the named partition and lets suspicion lapse. A node the
// split cut off from all its replicas has every one of their breakers
// open; for one cooldown after its last failed exchange it refuses to
// talk to them at all, so an untried op scheduled straight after the
// heal would fail on the partition's aftermath, not on a bug.
func healed(name string) []Op {
	return []Op{Heal{Name: name}, Settle{For: 2 * suspicionCooldown}}
}

// pickDistinct draws n distinct elements from names in rng order.
func pickDistinct(rng *rand.Rand, names []string, n int) []string {
	if n > len(names) {
		n = len(names)
	}
	perm := rng.Perm(len(names))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = names[perm[i]]
	}
	return out
}

func subtract(all, drop []string) []string {
	in := make(map[string]bool, len(drop))
	for _, d := range drop {
		in[d] = true
	}
	var out []string
	for _, n := range all {
		if !in[n] {
			out = append(out, n)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Deterministic iteration order: map ranges are randomized.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FabricCluster is the production-shaped topology: a stationary ring
// core of nStationary members (s1…) and a fleet of nMobile verified
// observer mobiles (m1…) booted fabric-style — concurrent observer
// admission, no per-mobile gossip or membership ingestion — so cluster
// cost scales O(core² + fleet), not O(members²).
func FabricCluster(seed int64, nStationary, nMobile int) Config {
	cfg := Config{
		Seed:        seed,
		Stationary:  make([]string, nStationary),
		Mobile:      make([]string, nMobile),
		Replication: 3,
		Fabric:      true,
	}
	for i := range cfg.Stationary {
		cfg.Stationary[i] = fmt.Sprintf("s%d", i+1)
	}
	for i := range cfg.Mobile {
		cfg.Mobile[i] = fmt.Sprintf("m%d", i+1)
	}
	return cfg
}

// Soak10kCluster is the nightly 10k-member soak topology: a 64-node
// stationary core fronting a 9936-mobile observer fleet, verified
// admission everywhere, and event-budgeted invariant checking (the
// exhaustive pair products would be ~10⁸ probes). No fault injection:
// at this scale the churn schedule itself is the chaos, and a clean
// transport keeps the run deterministic enough to replay by seed.
func Soak10kCluster(seed int64) Config {
	cfg := FabricCluster(seed, 64, 9936)
	cfg.CheckBudget = 256
	return cfg
}

// SoakCluster is the standard soak topology: six stationary, three
// mobile, 2s leases, triple replication, background maintenance, and a
// lossy, slow network.
func SoakCluster(seed int64) Config {
	return Config{
		Seed:        seed,
		Stationary:  []string{"s1", "s2", "s3", "s4", "s5", "s6"},
		Mobile:      []string{"m1", "m2", "m3"},
		LeaseTTL:    2 * time.Second,
		Replication: 3,
		Faults: transport.FaultConfig{
			Drop:     0.10,
			DelayMax: 15 * time.Millisecond,
		},
		Maintain: &live.MaintainConfig{
			GossipInterval: 300 * time.Millisecond,
			RenewInterval:  500 * time.Millisecond,
			ProbeInterval:  250 * time.Millisecond,
		},
	}
}
