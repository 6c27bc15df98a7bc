//go:build goexperiment.synctest

// synctest.Run needs the synchronous timer channels of Go 1.23 and
// later; a module at go 1.22 defaults to the asynchronous ones.
//go:debug asynctimerchan=0

package harness_test

import (
	"bytes"
	"runtime"
	"testing"
	"testing/synctest"

	"bristle/internal/harness"
)

// TestBubbleScenarios runs the acceptance table in virtual time: each
// scenario executes inside its own synctest bubble, where every sleep,
// lease, deadline and backoff advances a fake clock the moment all the
// bubble's goroutines block. The schedule, faults and invariants are
// TestScenarios' own. Once a scenario has shut its cluster down and the
// bubble is at rest, the bubble holds the goroutines it started with —
// its root, and the caller parked in synctest.Run — and no other: no
// settle, no slack. Needs Go 1.24 and GOEXPERIMENT=synctest:
//
//	GOEXPERIMENT=synctest go test -race -count=3 -run Bubble ./internal/harness
func TestBubbleScenarios(t *testing.T) {
	for _, sc := range scenarioTable() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var err error
			var base, left int
			var stacks []byte
			synctest.Run(func() {
				base, _ = bubbleGoroutines()
				err = harness.Execute(sc, t.Logf)
				synctest.Wait()
				left, stacks = bubbleGoroutines()
			})
			if err != nil {
				t.Fatalf("scenario %q failed in virtual time (seed %d):\n%v", sc.Name, sc.Cluster.Seed, err)
			}
			if left != base {
				t.Fatalf("%d goroutines in the bubble after the scenario, want the %d it started with:\n%s", left, base, stacks)
			}
		})
	}
}

// bubbleGoroutines counts the goroutines of the synctest bubble running,
// which runtime.NumGoroutine cannot tell from the process's others, and
// returns the stacks it counted them in.
func bubbleGoroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte(", synctest group ")), buf
}
