package live

// This file is the package's error taxonomy — every sentinel a caller of
// the live stack may need to classify, in one documented place.
//
// Classification cheat-sheet:
//
//   - ErrNotFound        terminal for this exchange; the record may appear
//                        later (late binding), so poll, don't retry inline.
//   - ErrStopped         terminal: the local node was closed; an exchange
//                        its pooled session carried when it closed ends
//                        with it too.
//   - ErrPeerSuspect     fail-fast from an open circuit breaker; no network
//                        I/O happened. Clears after a successful probe.
//   - ErrOverloaded      the one backpressure sentinel: a table the peer
//                        bounds is full of live entries and it shed the
//                        request. Back off before trying again. A peer
//                        whose accept queue is full holds a dial, on Mem
//                        as on TCP, until it connects or times out.
//   - wire.Fatal(err)    true for errors no retry can cure (protocol
//                        version mismatch, unencodable local message);
//                        everything else a live exchange returns is
//                        transient under the paper's failure model and the
//                        RPC layer retries it with capped jittered backoff.
//
// Retryable (below) is the one-stop classifier combining all of these.

import (
	"errors"

	"bristle/internal/wire"
)

var (
	// ErrNotFound is returned by discovery when no replica holds a valid
	// (unexpired) location record for the key.
	ErrNotFound = errors.New("live: no valid location record")

	// ErrStopped is returned when an operation races the node's Close,
	// which tears down every pooled session with it.
	ErrStopped = errors.New("live: node stopped")

	// ErrPeerSuspect is returned without any network I/O when the target
	// peer's circuit breaker is open: recent exchanges failed repeatedly,
	// and the cooldown before the next probe has not elapsed.
	ErrPeerSuspect = errors.New("live: peer suspect (circuit open)")

	// ErrOverloaded is returned when a peer refused a request because a
	// table it bounds — R(self), its registry — is full of live entries.
	// Treat it as backpressure (retry after backing off), not absence.
	ErrOverloaded = errors.New("live: peer overloaded")
)

// Retryable reports whether a backed-off retry of the same exchange may
// cure err. Protocol-fatal errors (wire.Fatal), the local terminal state
// (ErrStopped), and breaker fast-fails (ErrPeerSuspect — retrying before
// the cooldown cannot help) are not retryable; transient transport noise
// (timeouts, refused dials, torn or corrupted streams) is.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrPeerSuspect) || errors.Is(err, ErrStopped) {
		return false
	}
	return wire.Retryable(err)
}
