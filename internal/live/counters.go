package live

import "bristle/internal/metrics"

// counters holds the node's event handles, taken from Config.Counters once
// at construction so that counting an event is one atomic add: no name
// lookup, no lock, no string built per event. The names are the node's
// observable vocabulary — Stats().Counters, `bristled -stats`, and the
// harness's conservation laws read them by name. With no registry
// configured every handle is nil, which counts nothing.
type counters struct {
	// resolve.go
	coalesced, discoveries *metrics.Counter
	// rpc.go
	breakerProbes, breakerFastfail, breakerCloses, breakerTrips *metrics.Counter
	rpcRetries, rpcAttempts, rpcTimeouts, rpcFatal, rpcFailures *metrics.Counter
	// store.go and publish.go: every record ingested is accepted or
	// stale-rejected; every push received is applied or stale-rejected
	publishRecords, publishAccepted, publishStaleRejected *metrics.Counter
	publishRPCs                                           *metrics.Counter
	updatesReceived, updatesApplied, updatesStaleRejected *metrics.Counter
	updatesDropped, registryExpired, registryShed         *metrics.Counter
	// node.go: replies queued on the reader and the socket writes that
	// carried them; accepted conns shed at the bound
	serveFrames, serveFlushes, serveShed *metrics.Counter
	// join.go: every request is accepted or rejected for one reason
	joinRequests, joinAccepted *metrics.Counter
	joinRejected               map[joinReject]*metrics.Counter
}

func newCounters(r *metrics.Counters) counters {
	c := counters{
		coalesced:   r.Counter("loccache.coalesced"),
		discoveries: r.Counter("resolve.discoveries"),

		breakerProbes:   r.Counter("breaker.probes"),
		breakerFastfail: r.Counter("breaker.fastfail"),
		breakerCloses:   r.Counter("breaker.closes"),
		breakerTrips:    r.Counter("breaker.trips"),
		rpcRetries:      r.Counter("rpc.retries"),
		rpcAttempts:     r.Counter("rpc.attempts"),
		rpcTimeouts:     r.Counter("rpc.timeouts"),
		rpcFatal:        r.Counter("rpc.fatal"),
		rpcFailures:     r.Counter("rpc.failures"),

		publishRecords:       r.Counter("publish.records"),
		publishAccepted:      r.Counter("publish.accepted"),
		publishStaleRejected: r.Counter("publish.stale_rejected"),
		publishRPCs:          r.Counter("publish.rpcs"),
		updatesReceived:      r.Counter("updates.received"),
		updatesApplied:       r.Counter("updates.applied"),
		updatesStaleRejected: r.Counter("updates.stale_rejected"),
		updatesDropped:       r.Counter("updates.dropped"),
		registryExpired:      r.Counter("registry.expired"),
		registryShed:         r.Counter("registry.shed"),

		serveFrames:  r.Counter("serve.frames"),
		serveFlushes: r.Counter("serve.flushes"),
		serveShed:    r.Counter("serve.shed"),

		joinRequests: r.Counter("join.requests"),
		joinAccepted: r.Counter("join.accepted"),
		joinRejected: make(map[joinReject]*metrics.Counter),
	}
	for _, why := range []joinReject{joinUnsigned, joinBadSig, joinKeyMismatch, joinDuplicateID} {
		c.joinRejected[why] = r.Counter("join.rejected." + string(why))
	}
	return c
}
