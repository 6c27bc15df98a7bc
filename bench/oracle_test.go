package main

import "testing"

const ms = int64(1000000)

// A node bound to A at t=0 moves to B (Rebind invoked at 100 ms, returned
// at 110 ms) and to C (200 ms to 210 ms).
func movedTwice() *history {
	var h history
	h.moved("A", 0, 0)
	h.moved("B", 100*ms, 110*ms)
	h.moved("C", 200*ms, 210*ms)
	return &h
}

func TestOracleVerdicts(t *testing.T) {
	h := movedTwice()
	for _, c := range []struct {
		name      string
		addr      string
		inv, resp int64
		grace     int64
		want      verdict
	}{
		{"current binding", "C", 300 * ms, 301 * ms, 0, right},
		{"old binding while it was current", "A", 50 * ms, 51 * ms, 0, right},
		{"old binding while the move is in flight", "A", 105 * ms, 106 * ms, 0, right},
		{"new binding while the move is in flight", "B", 105 * ms, 106 * ms, 0, right},
		{"op that spans the whole move, old answer", "A", 90 * ms, 150 * ms, 0, right},
		{"planted never-bound address", "Z", 300 * ms, 301 * ms, 0, wrong},
		{"planted never-bound address, with grace", "Z", 300 * ms, 301 * ms, 1000 * ms, wrong},
		{"new binding before its move was invoked", "B", 50 * ms, 60 * ms, 0, wrong},
		{"old binding just after the move returned", "A", 111 * ms, 112 * ms, 0, wrong},
		{"old binding within the push grace", "A", 111 * ms, 112 * ms, 50 * ms, stale},
		{"planted too-old address", "A", 400 * ms, 401 * ms, 50 * ms, wrong},
	} {
		if got := h.check(c.addr, c.inv, c.resp, c.grace); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOracleCurrentAndVersion(t *testing.T) {
	h := movedTwice()
	addr, ver := h.current()
	if addr != "C" || ver != 3 || h.version.Load() != 3 {
		t.Errorf("current = %q version %d (atomic %d), want C version 3", addr, ver, h.version.Load())
	}
	// A port the node held before and holds again: the newest binding of
	// that address by the time the update arrived is the one announced.
	h.moved("A", 300*ms, 310*ms)
	if got := h.indexAt("A", 305*ms); got != 3 {
		t.Errorf("indexAt(A, 305 ms) = %d, want 3", got)
	}
	if got := h.indexAt("A", 50*ms); got != 0 {
		t.Errorf("indexAt(A, 50 ms) = %d, want 0", got)
	}
}

func TestOracleDeliveries(t *testing.T) {
	h := movedTwice()
	moves := []move{
		{due: 100 * ms, start: 100 * ms, returned: 110 * ms, index: 1},
		{due: 200 * ms, start: 200 * ms, returned: 210 * ms, index: 2},
	}
	deadline := 2000 * ms

	every := []received{{"B", 104 * ms}, {"C", 207 * ms}}
	if got := deliveries(h, moves, every, deadline); got[0] != 4*ms || got[1] != 7*ms {
		t.Errorf("every update delivered: lags %v, want [4ms 7ms]", got)
	}

	// Coalescing skipped the intermediate: C announces both moves.
	skipped := []received{{"C", 207 * ms}}
	if got := deliveries(h, moves, skipped, deadline); got[0] != 107*ms || got[1] != 7*ms {
		t.Errorf("intermediate skipped: lags %v, want [107ms 7ms]", got)
	}

	// The final update was dropped: nothing ever announced the second move.
	dropped := []received{{"B", 104 * ms}}
	if got := deliveries(h, moves, dropped, deadline); got[0] != 4*ms || got[1] != -1 {
		t.Errorf("final update dropped: lags %v, want [4ms -1]", got)
	}

	// An update that arrives after the deadline is as good as dropped.
	late := []received{{"B", 104 * ms}, {"C", 2300 * ms}}
	if got := deliveries(h, moves, late, deadline); got[1] != -1 {
		t.Errorf("late update: lag %v, want -1", got[1])
	}

	// A move whose RebindContext failed is not owed an update.
	failed := []move{{due: 100 * ms, index: 1, err: errTest}}
	if got := deliveries(h, failed, nil, deadline); got[0] != -1 {
		t.Errorf("failed move: lag %v, want -1", got[0])
	}
}

var errTest = errString("planted failure")

type errString string

func (e errString) Error() string { return string(e) }
