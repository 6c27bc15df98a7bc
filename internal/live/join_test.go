package live

// Tests for the verifiable admission path (join.go): self-certifying
// keys, the join-statement signature, and every rejection slug — forged
// stationary keys, region-stripe squatting, duplicate identities — plus
// the counters each one increments and the admission conservation law.

import (
	"context"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

var testRegions = []string{"east", "west", "south"}

// startVerifier boots one stationary node that requires verified joins.
func startVerifier(t *testing.T) (*Node, func()) {
	t.Helper()
	mem := transport.NewMem()
	nd := mustNode(t, Config{
		Name:                 "verifier",
		Identity:             hashkey.IdentityFromSeed([]byte("verifier")),
		Region:               "east",
		Regions:              testRegions,
		RequireVerifiedJoins: true,
		RequestTimeout:       time.Second,
		Counters:             metrics.NewCounters(),
	}, mem)
	if err := nd.Start(""); err != nil {
		t.Fatalf("start verifier: %v", err)
	}
	return nd, func() { nd.Close() }
}

// signedJoin builds a correctly signed TJoin for id claiming the given
// key, layer, and region.
func signedJoin(id *hashkey.Identity, key hashkey.Key, mobile bool, region, addr string) *wire.Message {
	m := &wire.Message{
		Type:   wire.TJoin,
		Self:   wire.Entry{Key: key, Addr: addr, Mobile: mobile, Epoch: 1},
		Pub:    id.Public(),
		Region: region,
	}
	m.Sig = id.Sign(joinStatement(m.Self, region))
	return m
}

func counter(n *Node, name string) uint64 { return n.Stats().Counters[name] }

// checkAdmissionConservation asserts the join conservation law on n:
// every request was either accepted or rejected with a reason.
func checkAdmissionConservation(t *testing.T, n *Node) {
	t.Helper()
	s := n.Stats()
	var outcomes uint64
	for name, v := range s.Counters {
		if name == "join.accepted" || (len(name) > 14 && name[:14] == "join.rejected.") {
			outcomes += v
		}
	}
	if reqs := s.Counters["join.requests"]; reqs != outcomes {
		t.Fatalf("admission conservation violated: %d requests, %d outcomes (%v)", reqs, outcomes, s.Counters)
	}
}

func TestJoinVerifiedAccepted(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()

	// A well-formed mobile joiner.
	mid := hashkey.IdentityFromSeed([]byte("mobile-1"))
	mkey := hashkey.IDKey(mid.Public(), "", nil)
	resp := v.handleJoin(signedJoin(mid, mkey, true, "", "m:1"))
	if !resp.Found {
		t.Fatalf("honest mobile join rejected: %v", v.Stats().Counters)
	}
	// A well-formed stationary joiner in a striped region.
	sid := hashkey.IdentityFromSeed([]byte("stationary-1"))
	skey := hashkey.IDKey(sid.Public(), "west", testRegions)
	if resp := v.handleJoin(signedJoin(sid, skey, false, "west", "s:1")); !resp.Found {
		t.Fatalf("honest stationary join rejected: %v", v.Stats().Counters)
	}
	if got := counter(v, "join.accepted"); got != 2 {
		t.Fatalf("join.accepted = %d, want 2", got)
	}
	checkAdmissionConservation(t, v)
}

func TestJoinRejectsUnsigned(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()
	resp := v.handleJoin(&wire.Message{Type: wire.TJoin, Self: wire.Entry{Key: 42, Addr: "x:1"}})
	if resp.Found {
		t.Fatal("unsigned join accepted by a verifying node")
	}
	if got := counter(v, "join.rejected.unsigned"); got != 1 {
		t.Fatalf("join.rejected.unsigned = %d, want 1", got)
	}
	checkAdmissionConservation(t, v)
}

func TestJoinRejectsBadSignature(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()
	id := hashkey.IdentityFromSeed([]byte("claimant"))
	key := hashkey.IDKey(id.Public(), "", nil)

	// Signature by a different identity over the same statement.
	m := signedJoin(id, key, true, "", "x:1")
	m.Sig = hashkey.IdentityFromSeed([]byte("impostor")).Sign(joinStatement(m.Self, ""))
	if v.handleJoin(m).Found {
		t.Fatal("join with an impostor's signature accepted")
	}
	// Signature over a different statement (the address was swapped after
	// signing — a captured proof replayed for another endpoint).
	m = signedJoin(id, key, true, "", "x:1")
	m.Self.Addr = "hijack:9"
	if v.handleJoin(m).Found {
		t.Fatal("join with a replayed signature accepted")
	}
	if got := counter(v, "join.rejected.bad_sig"); got != 2 {
		t.Fatalf("join.rejected.bad_sig = %d, want 2", got)
	}
	checkAdmissionConservation(t, v)
}

// TestJoinRejectsForgedStationaryKey is the acceptance-criteria pin: a
// node presenting a valid identity but claiming a stationary/striped key
// that identity didn't earn is rejected, and the rejection is visible as
// a counter in Stats().
func TestJoinRejectsForgedStationaryKey(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()
	id := hashkey.IdentityFromSeed([]byte("squatter"))

	// Claim a key adjacent to the verifier's own (a targeted squat on a
	// stationary neighborhood), correctly signed — the signature is honest
	// about the claim, the claim itself is the forgery.
	forged := v.Key() + 1
	if v.handleJoin(signedJoin(id, forged, false, "east", "sq:1")).Found {
		t.Fatal("forged stationary key accepted")
	}

	// Region-stripe squatting: the key was legitimately earned under
	// "west", then presented with a "east" region claim to land in east's
	// replica-selection stripes.
	westKey := hashkey.IDKey(id.Public(), "west", testRegions)
	if v.handleJoin(signedJoin(id, westKey, false, "east", "sq:2")).Found {
		t.Fatal("region-stripe squat accepted")
	}

	// A mobile join claiming a striped stationary key: mobile keys never
	// stripe, so the region claim must not sway the derivation.
	if v.handleJoin(signedJoin(id, westKey, true, "west", "sq:3")).Found {
		t.Fatal("mobile join with a stationary striped key accepted")
	}

	if got := counter(v, "join.rejected.key_mismatch"); got != 3 {
		t.Fatalf("join.rejected.key_mismatch = %d, want 3: %v", got, v.Stats().Counters)
	}
	if _, ok := v.Stats().Counters["join.rejected.key_mismatch"]; !ok {
		t.Fatal("rejection counter not surfaced in Stats()")
	}
	checkAdmissionConservation(t, v)
}

func TestJoinRejectsDuplicateIdentity(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()
	id := hashkey.IdentityFromSeed([]byte("original"))
	key := hashkey.IDKey(id.Public(), "", nil)
	if !v.handleJoin(signedJoin(id, key, true, "", "a:1")).Found {
		t.Fatal("original join rejected")
	}
	// The same identity may re-join (a restart): not a duplicate.
	if !v.handleJoin(signedJoin(id, key, true, "", "a:2")).Found {
		t.Fatal("re-join by the same identity rejected")
	}
	// ed25519 keys cannot be chosen to collide on the ring, so a second
	// identity presenting the first one's key can only arise from a forged
	// derivation — but the duplicate-ID table must still hold the line if
	// key derivation were ever weakened. Simulate by handing the second
	// identity a statement over the first one's key (valid signature,
	// forged claim): key_mismatch fires first, which is fine; then check
	// the unsigned-squat arm, which is the duplicate table's own job.
	v2, stop2 := startVerifierWithoutRequirement(t)
	defer stop2()
	if !v2.handleJoin(signedJoin(id, key, true, "", "a:1")).Found {
		t.Fatal("verified join rejected by permissive node")
	}
	// An unsigned join claiming the verified identity's key: squatting.
	if v2.handleJoin(&wire.Message{Type: wire.TJoin, Self: wire.Entry{Key: key, Addr: "sq:1"}}).Found {
		t.Fatal("unsigned join claiming a verified key accepted")
	}
	if got := counter(v2, "join.rejected.duplicate_id"); got != 1 {
		t.Fatalf("join.rejected.duplicate_id = %d, want 1", got)
	}
	// But an unsigned join for an unclaimed key passes on a permissive node.
	if !v2.handleJoin(&wire.Message{Type: wire.TJoin, Self: wire.Entry{Key: 7, Addr: "u:1"}}).Found {
		t.Fatal("permissive node rejected a plain unsigned join")
	}
	checkAdmissionConservation(t, v)
	checkAdmissionConservation(t, v2)
}

// startVerifierWithoutRequirement boots a node that verifies proofs when
// present but still admits unsigned joins (the mixed-fleet rollout mode).
func startVerifierWithoutRequirement(t *testing.T) (*Node, func()) {
	t.Helper()
	mem := transport.NewMem()
	nd := mustNode(t, Config{
		Name:           "permissive",
		Identity:       hashkey.IdentityFromSeed([]byte("permissive")),
		RequestTimeout: time.Second,
		Counters:       metrics.NewCounters(),
	}, mem)
	if err := nd.Start(""); err != nil {
		t.Fatalf("start permissive: %v", err)
	}
	return nd, func() { nd.Close() }
}

// TestJoinObserverNotIngested pins the scalable admission mode: an
// observer join returns the stationary directory but must not grow the
// bootstrap's membership view.
func TestJoinObserverNotIngested(t *testing.T) {
	v, stop := startVerifier(t)
	defer stop()
	before := v.Stats().Peers
	id := hashkey.IdentityFromSeed([]byte("observer"))
	m := signedJoin(id, hashkey.IDKey(id.Public(), "", nil), true, "", "o:1")
	m.Observer = true
	resp := v.handleJoin(m)
	if !resp.Found {
		t.Fatalf("observer join rejected: %v", v.Stats().Counters)
	}
	if got := v.Stats().Peers; got != before {
		t.Fatalf("observer join grew membership: %d -> %d", before, got)
	}
	for _, e := range resp.Entries {
		if e.Mobile {
			t.Fatalf("observer directory contains a mobile entry: %+v", e)
		}
	}
	if len(resp.Entries) == 0 {
		t.Fatal("observer directory empty: expected at least the bootstrap")
	}
}

// TestJoinEndToEndVerified runs the full wire path: an identity-bearing
// node joins a verifying bootstrap over the mem transport, and a forged
// claimant is turned away with an error.
func TestJoinEndToEndVerified(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	boot := mustNode(t, Config{
		Name:                 "boot",
		Identity:             hashkey.IdentityFromSeed([]byte("boot")),
		Region:               "east",
		Regions:              testRegions,
		RequireVerifiedJoins: true,
		RequestTimeout:       time.Second,
		Counters:             counters,
	}, mem)
	if err := boot.Start(""); err != nil {
		t.Fatal(err)
	}
	defer boot.Close()

	good := mustNode(t, Config{
		Name:           "good",
		Identity:       hashkey.IdentityFromSeed([]byte("good")),
		Mobile:         true,
		RequestTimeout: time.Second,
	}, mem)
	if err := good.Start(""); err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.JoinViaContext(context.Background(), boot.Addr()); err != nil {
		t.Fatalf("verified join failed: %v", err)
	}

	// A node with no identity is refused outright.
	legacy := mustNode(t, Config{Name: "legacy", Mobile: true, RequestTimeout: time.Second}, mem)
	if err := legacy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if err := legacy.JoinViaContext(context.Background(), boot.Addr()); err == nil {
		t.Fatal("unsigned join succeeded against a verifying bootstrap")
	}
	if got := counters.Get("join.rejected.unsigned"); got != 1 {
		t.Fatalf("join.rejected.unsigned = %d, want 1", got)
	}
	checkAdmissionConservation(t, boot)
}
