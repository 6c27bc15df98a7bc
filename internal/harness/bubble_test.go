//go:build goexperiment.synctest

// synctest.Run needs the synchronous timer channels of Go 1.23 and
// later; a module at go 1.22 defaults to the asynchronous ones.
//go:debug asynctimerchan=0

package harness_test

import (
	"testing"
	"testing/synctest"

	"bristle/internal/harness"
)

// TestBubbleScenarios runs the acceptance table in virtual time: each
// scenario executes inside its own synctest bubble, where every sleep,
// lease, deadline and backoff advances a fake clock the moment all the
// bubble's goroutines block. The schedule, faults and invariants are
// TestScenarios' own. Needs Go 1.24 and GOEXPERIMENT=synctest:
//
//	GOEXPERIMENT=synctest go test -race -count=3 -run Bubble ./internal/harness
func TestBubbleScenarios(t *testing.T) {
	for _, sc := range scenarioTable() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var err error
			synctest.Run(func() { err = harness.Execute(sc, t.Logf) })
			if err != nil {
				t.Fatalf("scenario %q failed in virtual time (seed %d):\n%v", sc.Name, sc.Cluster.Seed, err)
			}
		})
	}
}
