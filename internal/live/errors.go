package live

// This file is the package's error taxonomy — every sentinel a caller of
// the live stack may need to classify, in one documented place.
//
// Classification cheat-sheet:
//
//   - ErrNotFound        terminal for this exchange; the record may appear
//                        later (late binding), so poll, don't retry inline.
//   - ErrStopped         terminal: the local node was closed.
//   - ErrPeerSuspect     fail-fast from an open circuit breaker; no network
//                        I/O happened. Clears after a successful probe.
//   - ErrPoolClosed      terminal: the node's connection pool was shut down
//                        (the node is closing).
//   - ErrBacklogFull     transient backpressure from transport dial — the
//                        peer exists but its accept queue stayed saturated;
//                        re-exported from transport for discoverability.
//   - ErrOverloaded      backpressure from the peer itself: a table it
//                        bounds is full of live entries and it shed the
//                        request. Back off before trying again.
//   - wire.Fatal(err)    true for errors no retry can cure (protocol
//                        version mismatch, unencodable local message);
//                        everything else a live exchange returns is
//                        transient under the paper's failure model and the
//                        RPC layer retries it with capped jittered backoff.
//
// Retryable (below) is the one-stop classifier combining all of these.

import (
	"errors"

	"bristle/internal/transport"
	"bristle/internal/wire"
)

var (
	// ErrNotFound is returned by discovery when no replica holds a valid
	// (unexpired) location record for the key.
	ErrNotFound = errors.New("live: no valid location record")

	// ErrStopped is returned when an operation races the node's Close.
	ErrStopped = errors.New("live: node stopped")

	// ErrPeerSuspect is returned without any network I/O when the target
	// peer's circuit breaker is open: recent exchanges failed repeatedly,
	// and the cooldown before the next probe has not elapsed.
	ErrPeerSuspect = errors.New("live: peer suspect (circuit open)")

	// ErrPoolClosed is returned by exchanges that race the connection
	// pool's shutdown during node Close.
	ErrPoolClosed = errors.New("live: connection pool closed")

	// ErrBacklogFull re-exports transport.ErrBacklogFull: the peer's
	// accept queue stayed saturated for the bounded dial wait. Treat it as
	// backpressure (retry soon), not absence.
	ErrBacklogFull = transport.ErrBacklogFull

	// ErrOverloaded is returned when a peer refused a request because a
	// table it bounds — R(self), its registry — is full of live entries.
	// Treat it as backpressure (retry after backing off), not absence.
	ErrOverloaded = errors.New("live: peer overloaded")
)

// Retryable reports whether a backed-off retry of the same exchange may
// cure err. Protocol-fatal errors (wire.Fatal), local terminal states
// (ErrStopped, ErrPoolClosed), and breaker fast-fails (ErrPeerSuspect —
// retrying before the cooldown cannot help) are not retryable; transient
// transport noise (timeouts, refused dials, torn or corrupted streams,
// ErrBacklogFull) is.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrPeerSuspect) || errors.Is(err, ErrStopped) || errors.Is(err, ErrPoolClosed) {
		return false
	}
	return wire.Retryable(err)
}
