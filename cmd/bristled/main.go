// Command bristled runs a live Bristle node over TCP: a stationary
// location server, or a mobile node that can re-bind to new ports and
// push location updates to registered watchers.
//
// Start a stationary bootstrap:
//
//	bristled -name alpha -listen 127.0.0.1:7001
//
// Join more stationary nodes:
//
//	bristled -name beta -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//
// Run a mobile node that re-binds every 10 seconds (demonstrating
// publish + LDT updates over real sockets):
//
//	bristled -name roamer -mobile -rebind 10s -join 127.0.0.1:7001
//
// Watch a key and print proactive updates as they arrive:
//
//	bristled -name watcher -join 127.0.0.1:7001 -watch roamer
//
// Verified admission: give nodes self-certifying identities (the key
// becomes H(pubkey), joins carry a signed proof) and make the bootstrap
// reject unproven claims:
//
//	bristled -name alpha -identity-seed alpha-secret -verify-joins -listen 127.0.0.1:7001
//	bristled -name roamer -mobile -identity-seed roamer-secret -join 127.0.0.1:7001
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

func main() {
	name := flag.String("name", "", "stable node name (hashed into the node key)")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	join := flag.String("join", "", "bootstrap node address to join via")
	mobile := flag.Bool("mobile", false, "run as a mobile node")
	capacity := flag.Float64("capacity", 4, "advertised capacity (LDT scheduling)")
	region := flag.String("region", "", "stationary: this node's region label (region-clustered key placement)")
	regions := flag.String("regions", "", "comma-separated full region set; must be identical on every node")
	lease := flag.Duration("lease", 30*time.Second, "location lease TTL (0 = forever)")
	identitySeed := flag.String("identity-seed", "", "derive a self-certifying identity from this seed string (key becomes H(pubkey); joins carry a signed proof)")
	freshIdentity := flag.Bool("identity", false, "generate a fresh random self-certifying identity for this run")
	verifyJoins := flag.Bool("verify-joins", false, "reject join requests that carry no valid identity proof")
	rebind := flag.Duration("rebind", 0, "mobile: re-bind to a new port at this interval")
	watch := flag.String("watch", "", "register interest in this node and print its updates (a name, or the 16-digit hex key a node prints at startup — the handle for identity-keyed nodes)")
	gossip := flag.Duration("gossip", 2*time.Second, "anti-entropy gossip interval")
	stats := flag.Duration("stats", 30*time.Second, "resilience counter log interval (0 = only at exit)")
	opTimeout := flag.Duration("op-timeout", 30*time.Second, "deadline for each foreground protocol operation")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (enables mutex/block profiling)")
	verbose := flag.Bool("v", false, "verbose protocol logging")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "bristled: -name is required")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// Sampled lock profiles: cheap enough for a long-lived daemon and
		// exactly what's needed to inspect contention on the resolve hot
		// path (go tool pprof http://ADDR/debug/pprof/mutex or /block).
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "bristled: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	opts := []live.Option{
		live.WithCapacity(*capacity),
		live.WithLease(*lease),
		live.WithCounters(counters),
		live.WithGauges(gauges),
	}
	if *mobile {
		opts = append(opts, live.WithMobile())
	}
	if *region != "" {
		opts = append(opts, live.WithRegion(*region, splitCSV(*regions)...))
	}
	switch {
	case *identitySeed != "":
		opts = append(opts, live.WithIdentity(hashkey.IdentityFromSeed([]byte(*identitySeed))))
	case *freshIdentity:
		id, err := hashkey.NewIdentity()
		if err != nil {
			fatal(err)
		}
		opts = append(opts, live.WithIdentity(id))
	}
	if *verifyJoins {
		opts = append(opts, live.WithVerifiedJoins())
	}
	if *verbose {
		opts = append(opts, live.WithLogger(log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)))
	}
	node, err := live.New(*name, &transport.TCP{}, opts...)
	if err != nil {
		fatal(err)
	}
	if err := node.Start(*listen); err != nil {
		fatal(err)
	}
	defer node.Close()
	if *region != "" {
		fmt.Printf("node %s key=%v region=%s listening on %s\n", *name, node.Key(), *region, node.Addr())
	} else {
		fmt.Printf("node %s key=%v listening on %s\n", *name, node.Key(), node.Addr())
	}

	// ctx ends on the first interrupt; every foreground operation also
	// gets its own -op-timeout deadline on top.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		if err := withDeadline(ctx, *opTimeout, func(ctx context.Context) error {
			return node.JoinViaContext(ctx, *join)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("joined via %s; %d peers known\n", *join, len(node.KnownPeers()))
	}
	if err := withDeadline(ctx, *opTimeout, node.PublishContext); err != nil {
		fmt.Fprintf(os.Stderr, "bristled: initial publish: %v\n", err)
	}

	// Gossip, lease renewal, and suspect probing run as library
	// maintenance loops.
	stopMaint := node.StartMaintenance(live.MaintainConfig{
		GossipInterval: *gossip,
		ProbeInterval:  *gossip * 2,
		Rand:           rand.New(rand.NewSource(time.Now().UnixNano())),
	})
	defer stopMaint()

	prev := counters.Snapshot()
	var statsTick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		statsTick = t.C
	}

	var rebindTick <-chan time.Time
	if *mobile && *rebind > 0 {
		t := time.NewTicker(*rebind)
		defer t.Stop()
		rebindTick = t.C
	}

	if *watch != "" {
		go watchLoop(ctx, node, *watch, *lease, *opTimeout)
	}

	for {
		select {
		case <-ctx.Done():
			fmt.Printf("\nshutting down; counters: %s gauges: %s\n", counters, gauges)
			return
		case <-statsTick:
			// Per-interval deltas show what the node is doing right now;
			// cumulative totals only ever grow and bury the signal.
			delta := counters.Diff(prev)
			for name, d := range delta {
				prev[name] += d
			}
			st := node.Stats()
			line := fmt.Sprintf("stats: Δ %s | %s", formatDelta(delta), gauges)
			// Frames per write at the two coalescing points, this interval:
			// 1.0 is a syscall per frame, higher is bursts sharing one.
			for _, side := range []string{"serve", "pool"} {
				if fpw := live.FramesPerWrite(delta, side); fpw > 0 {
					line += fmt.Sprintf(" %s.frames/write=%.1f", side, fpw)
				}
			}
			if len(st.Suspects) > 0 {
				line += fmt.Sprintf(" suspects=%v", st.Suspects)
			}
			if rtts := formatRTTs(st.PeerRTTs, 3); rtts != "" {
				line += " rtt " + rtts
			}
			fmt.Println(line)
		case <-rebindTick:
			if err := withDeadline(ctx, *opTimeout, func(ctx context.Context) error {
				return node.RebindContext(ctx, "127.0.0.1:0")
			}); err != nil {
				fmt.Fprintf(os.Stderr, "rebind: %v\n", err)
				continue
			}
			fmt.Printf("moved to %s (published + LDT update pushed)\n", node.Addr())
		case up := <-node.Updates():
			fmt.Printf("update: %v is now at %s\n", up.Key, up.Addr)
		}
	}
}

// formatRTTs renders the nearest max measured peers as
// "addr=rtt(n=samples[,suspect])" pairs; PeerRTTs arrives sorted by
// ascending estimate, so a truncated view is the closest peers.
func formatRTTs(rtts []live.PeerRTT, max int) string {
	if len(rtts) > max {
		rtts = rtts[:max]
	}
	var b strings.Builder
	for i, p := range rtts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s(n=%d", p.Addr, p.RTT.Round(100*time.Microsecond), p.Samples)
		if p.Suspect {
			b.WriteString(",suspect")
		}
		b.WriteByte(')')
	}
	return b.String()
}

// splitCSV splits a comma-separated flag value, trimming blanks.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// formatDelta renders an interval diff as sorted "name=+value" pairs.
func formatDelta(d map[string]uint64) string {
	if len(d) == 0 {
		return "(quiet)"
	}
	names := make([]string, 0, len(d))
	for k := range d {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=+%d", k, d[k])
	}
	return b.String()
}

// withDeadline runs op under parent plus a per-operation timeout.
func withDeadline(parent context.Context, d time.Duration, op func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(parent, d)
	defer cancel()
	return op(ctx)
}

// watchKey resolves the -watch argument to a ring key: a 16-digit hex
// key is used verbatim (the startup-printed handle — the only stable
// one for nodes whose key is derived from an identity, not a name);
// anything else is hashed as a node name.
func watchKey(s string) hashkey.Key {
	if len(s) == 16 {
		if v, err := strconv.ParseUint(s, 16, 64); err == nil {
			return hashkey.Key(v)
		}
	}
	return hashkey.FromName(s)
}

// watchLoop resolves the watched node and registers interest, retrying
// until it succeeds (the watched node may join later) or ctx ends.
// Registrations are leased soft state — they expire with this node's
// lease TTL — so with a non-zero lease the loop keeps renewing the
// registration (against the target's current address) well inside the
// lease window; with a zero lease one registration lasts forever.
func watchLoop(ctx context.Context, node *live.Node, watched string, lease, opTimeout time.Duration) {
	key := watchKey(watched)
	registered := false
	for ctx.Err() == nil {
		err := withDeadline(ctx, opTimeout, func(ctx context.Context) error {
			addr, err := node.DiscoverContext(ctx, key)
			if err != nil {
				return err
			}
			if err := node.RegisterWithContext(ctx, addr); err != nil {
				return err
			}
			if !registered {
				fmt.Printf("watching %s (key %v) at %s\n", watched, key, addr)
				registered = true
			}
			return nil
		})
		if err == nil && lease == 0 {
			return
		}
		wait := 2 * time.Second
		if err == nil {
			wait = lease / 2
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bristled: %v\n", err)
	os.Exit(1)
}
