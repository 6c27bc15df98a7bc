package live

// This file is the package's one constructor: New(name, transport,
// options...). Functional options keep the call site readable, let the
// defaults live in one place (Config.withDefaults), and let validation
// reject contradictory policies before a node exists.

import (
	"errors"
	"fmt"
	"log"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

// Option adjusts one aspect of a node's configuration.
type Option func(*Config)

// WithCapacity sets the advertised C_X used to schedule LDTs.
func WithCapacity(c float64) Option { return func(cfg *Config) { cfg.Capacity = c } }

// WithMobile marks the node as relocatable (Rebind allowed).
func WithMobile() Option { return func(cfg *Config) { cfg.Mobile = true } }

// WithRegion labels the node's locality bucket and declares the full
// deployment-wide region set (order-insensitive, but identical on every
// node). A stationary node with a region draws its hash key from that
// region's ring stripes (hashkey.RegionStriped) so replica sets span
// regions; mobile nodes keep their plain key but still report the label.
func WithRegion(region string, regions ...string) Option {
	return func(cfg *Config) {
		cfg.Region = region
		cfg.Regions = regions
	}
}

// WithIdentity gives the node a cryptographic identity: its hash key
// becomes self-certifying (hashkey.IDKey over the public key, region-
// striped for regional stationary nodes) and its joins carry a signed
// proof of that claim.
func WithIdentity(id *hashkey.Identity) Option {
	return func(cfg *Config) { cfg.Identity = id }
}

// WithVerifiedJoins makes the node reject join requests that carry no
// identity proof. Joins that carry one are always verified.
func WithVerifiedJoins() Option {
	return func(cfg *Config) { cfg.RequireVerifiedJoins = true }
}

// WithObserverJoin does nothing: a joiner's layer alone decides whether
// it enters the ring (membership.go).
//
// Deprecated: a mobile never enters the ring and a stationary always
// does; drop the option.
func WithObserverJoin() Option { return func(*Config) {} }

// WithLease bounds how long published locations and caches stay valid.
func WithLease(ttl time.Duration) Option { return func(cfg *Config) { cfg.LeaseTTL = ttl } }

// WithReplication sets how many stationary peers hold the node's
// location record.
func WithReplication(k int) Option { return func(cfg *Config) { cfg.Replication = k } }

// WithRequestTimeout bounds a single attempt of an exchange.
func WithRequestTimeout(d time.Duration) Option {
	return func(cfg *Config) { cfg.RequestTimeout = d }
}

// WithRetryBudget shapes the whole retry policy in one call: at most
// attempts tries, full-jitter backoff capped per pause at [base, max]
// doubling from base, all attempts bounded by total wall time.
func WithRetryBudget(attempts int, base, max, total time.Duration) Option {
	return func(cfg *Config) {
		cfg.RetryAttempts = attempts
		cfg.RetryBase = base
		cfg.RetryMax = max
		cfg.RetryBudget = total
	}
}

// WithSuspicion tunes the per-peer circuit breakers: threshold
// consecutive failures trip a breaker, which fails fast for cooldown
// before admitting a probe.
func WithSuspicion(threshold int, cooldown time.Duration) Option {
	return func(cfg *Config) {
		cfg.SuspicionThreshold = threshold
		cfg.SuspicionCooldown = cooldown
	}
}

// WithPool tunes the multiplexed per-peer connection pool.
func WithPool(pc PoolConfig) Option { return func(cfg *Config) { cfg.Pool = pc } }

// WithCounters records resilience events (rpc.retries, breaker.trips,
// pool.dials, ...) on the given registry.
func WithCounters(c *metrics.Counters) Option { return func(cfg *Config) { cfg.Counters = c } }

// WithGauges exposes instantaneous pool state (pool.sessions,
// pool.inflight) on the given registry.
func WithGauges(g *metrics.Gauges) Option { return func(cfg *Config) { cfg.Gauges = g } }

// WithLogger receives protocol diagnostics.
func WithLogger(l *log.Logger) Option { return func(cfg *Config) { cfg.Logger = l } }

// New builds a stopped node named name over tr, applying opts on top of
// the package defaults and validating the result. Call Start to begin
// serving.
func New(name string, tr transport.Transport, opts ...Option) (*Node, error) {
	cfg := Config{Name: name}
	for _, opt := range opts {
		opt(&cfg)
	}
	return newNode(cfg, tr)
}

// validate rejects configurations no default can repair. It runs before
// withDefaults, so zero values are fine — only explicit nonsense fails.
func (cfg Config) validate() error {
	if cfg.Name == "" {
		return errors.New("live: node name must not be empty")
	}
	if cfg.Capacity < 0 {
		return fmt.Errorf("live: capacity must be >= 0, got %g", cfg.Capacity)
	}
	if cfg.Replication < 0 {
		return fmt.Errorf("live: replication must be >= 0, got %d", cfg.Replication)
	}
	if cfg.RequestTimeout < 0 {
		return fmt.Errorf("live: request timeout must be >= 0, got %v", cfg.RequestTimeout)
	}
	if cfg.RetryAttempts < 0 {
		return fmt.Errorf("live: retry attempts must be >= 0, got %d", cfg.RetryAttempts)
	}
	if cfg.RetryBase < 0 || cfg.RetryMax < 0 || cfg.RetryBudget < 0 {
		return errors.New("live: retry durations must be >= 0")
	}
	if cfg.RetryBase > 0 && cfg.RetryMax > 0 && cfg.RetryBase > cfg.RetryMax {
		return fmt.Errorf("live: retry base %v exceeds retry max %v", cfg.RetryBase, cfg.RetryMax)
	}
	if cfg.LeaseTTL < 0 {
		return fmt.Errorf("live: lease TTL must be >= 0, got %v", cfg.LeaseTTL)
	}
	if cfg.Region != "" && len(cfg.Regions) > 0 {
		found := false
		for _, r := range cfg.Regions {
			if r == cfg.Region {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("live: region %q is not in the declared region set %v", cfg.Region, cfg.Regions)
		}
	}
	if cfg.SuspicionThreshold < 0 {
		return fmt.Errorf("live: suspicion threshold must be >= 0, got %d", cfg.SuspicionThreshold)
	}
	if cfg.Pool.MaxSessions < 0 || cfg.Pool.IdleTimeout < 0 {
		return errors.New("live: pool limits must be >= 0")
	}
	return nil
}
