package live

import (
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

func TestNewAppliesOptionsAndDefaults(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	n, err := New("opt-node", mem,
		WithCapacity(7),
		WithMobile(),
		WithLease(5*time.Second),
		WithReplication(3),
		WithRequestTimeout(2*time.Second),
		WithRetryBudget(6, 10*time.Millisecond, 500*time.Millisecond, 20*time.Second),
		WithSuspicion(5, 3*time.Second),
		WithCounters(counters),
		WithGauges(gauges),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := n.cfg
	if cfg.Capacity != 7 || !cfg.Mobile || cfg.LeaseTTL != 5*time.Second || cfg.Replication != 3 {
		t.Errorf("identity options not applied: %+v", cfg)
	}
	if cfg.RequestTimeout != 2*time.Second || cfg.RetryAttempts != 6 ||
		cfg.RetryBase != 10*time.Millisecond || cfg.RetryMax != 500*time.Millisecond ||
		cfg.RetryBudget != 20*time.Second {
		t.Errorf("retry options not applied: %+v", cfg)
	}
	if cfg.SuspicionThreshold != 5 || cfg.SuspicionCooldown != 3*time.Second {
		t.Errorf("suspicion options not applied: %+v", cfg)
	}
	if cfg.Counters != counters || cfg.Gauges != gauges {
		t.Error("metrics registries not applied")
	}
	// Unset knobs get defaults.
	if cfg.Pool.MaxSessions != 64 || cfg.Pool.IdleTimeout != 60*time.Second {
		t.Errorf("pool defaults not applied: %+v", cfg.Pool)
	}
}

// TestNewAcceptsHarnessOptionSets runs the two option sets the scenario
// harness boots its members with (harness.nodeOptions: a stationary ring
// member, and a fabric mobile on a one-session pool) through New — every
// construction is validated, so a set the validator rejected would take the
// whole harness down.
func TestNewAcceptsHarnessOptionSets(t *testing.T) {
	id, err := hashkey.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	stationary := []Option{
		WithCapacity(4),
		WithReplication(3),
		WithLease(2 * time.Second),
		WithRequestTimeout(250 * time.Millisecond),
		WithRetryBudget(6, 5*time.Millisecond, 50*time.Millisecond, 0),
		WithSuspicion(3, 150*time.Millisecond),
		WithCounters(metrics.NewCounters()),
		WithGauges(metrics.NewGauges()),
		WithIdentity(id),
		WithVerifiedJoins(),
	}
	mobile := append(append([]Option(nil), stationary...),
		WithMobile(),
		WithPool(PoolConfig{MaxSessions: 1, IdleTimeout: time.Second}),
		WithRequestTimeout(2*time.Second),
	)
	for name, opts := range map[string][]Option{"stationary": stationary, "mobile": mobile} {
		n, err := New(name, transport.NewMem(), opts...)
		if err != nil {
			t.Fatalf("%s option set rejected: %v", name, err)
		}
		cfg := n.cfg
		n.Close()
		if want := 6 * cfg.RequestTimeout; cfg.RetryBudget != want {
			t.Errorf("%s: RetryBudget = %v, want the default attempts x timeout = %v", name, cfg.RetryBudget, want)
		}
		wantPool := PoolConfig{MaxSessions: 64, IdleTimeout: 60 * time.Second}
		if name == "mobile" {
			wantPool = PoolConfig{MaxSessions: 1, IdleTimeout: time.Second}
		}
		if cfg.Pool != wantPool {
			t.Errorf("%s: pool = %+v, want %+v", name, cfg.Pool, wantPool)
		}
		if cfg.Mobile != (name == "mobile") || !cfg.RequireVerifiedJoins || cfg.Identity != id {
			t.Errorf("%s: admission options not applied: %+v", name, cfg)
		}
	}
}

func TestNewValidation(t *testing.T) {
	mem := transport.NewMem()
	cases := []struct {
		name string
		node string
		tr   transport.Transport
		opts []Option
	}{
		{"empty name", "", mem, nil},
		{"nil transport", "x", nil, nil},
		{"negative replication", "x", mem, []Option{WithReplication(-1)}},
		{"negative capacity", "x", mem, []Option{WithCapacity(-2)}},
		{"negative timeout", "x", mem, []Option{WithRequestTimeout(-time.Second)}},
		{"base above max", "x", mem, []Option{WithRetryBudget(3, time.Second, time.Millisecond, time.Minute)}},
		{"negative pool limits", "x", mem, []Option{WithPool(PoolConfig{MaxSessions: -1})}},
		{"negative idle timeout", "x", mem, []Option{WithPool(PoolConfig{IdleTimeout: -time.Second})}},
		{"negative suspicion threshold", "x", mem, []Option{WithSuspicion(-1, time.Second)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.node, tc.tr, tc.opts...); err == nil {
				t.Errorf("New(%q) accepted invalid config", tc.name)
			}
		})
	}
}
