// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4) plus the Table 1 design comparison, at
// configurable scale. Each experiment has a Config with laptop-friendly
// defaults (documented against the paper's original parameters in
// EXPERIMENTS.md), a Run function returning structured rows, and a
// Render function producing the paper-style text table.
//
// All experiments are deterministic for a fixed Config (seeded PRNGs
// everywhere), so EXPERIMENTS.md numbers are reproducible bit-for-bit.
package experiments

import (
	"fmt"
	"math/rand"

	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// newUnderlay builds a transit-stub underlay with roughly nRouters routers
// and wraps it in a simnet network (no event clock: the evaluation is
// synchronous hop/cost accounting).
func newUnderlay(nRouters int, seed int64) (*simnet.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(nRouters), rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: underlay: %w", err)
	}
	return simnet.NewNetwork(g), nil
}

// capRNG draws the capacity values used throughout Section 4.2/4.3: the
// number of available network connections, uniform in [1, max].
func drawCapacity(rng *rand.Rand, max int) float64 {
	if max < 1 {
		max = 1
	}
	return float64(1 + rng.Intn(max))
}
