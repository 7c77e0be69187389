// Command depserver materializes a snapshot of the synthetic Internet and
// serves its zones over real UDP+TCP DNS, so external tools (cmd/digsim,
// dig, the examples) can interrogate the same world the measurement
// pipeline analyzes.
//
// With -http it additionally serves an operator endpoint: the snapshot-
// backed query API (/v1/sites, /v1/providers, /v1/snapshot, /v1/sweep,
// /v1/mitigation, /incident — see docs/serving.md), the process-wide
// telemetry registry as Prometheus text (/metrics), expvar (/debug/vars)
// and the standard pprof profiles (/debug/pprof/). See docs/observability.md.
//
// Usage:
//
//	depserver [-scale N] [-seed S] [-year 2016|2020] [-addr host:port] [-http host:port] [-prewarm] [-allow-delta]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/dnsserver"
	"depscope/internal/dnszone"
	"depscope/internal/ecosystem"
	"depscope/internal/membudget"
	"depscope/internal/serve"

	// Blank imports register the metrics of layers depserver does not call
	// directly, so a scrape of /metrics shows the full catalog (zero-valued
	// until the corresponding code runs in this process). analysis and
	// incident are imported for real by admin.go.
	_ "depscope/internal/conc"
	_ "depscope/internal/measure"
	_ "depscope/internal/resolver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("depserver: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole server lifecycle so every exit path unwinds through
// ordinary returns: once listeners are up, errors propagate back here
// instead of calling log.Fatal mid-flight (which would skip the deferred
// cleanup and leave the HTTP listener dangling on a DNS failure or vice
// versa).
func run() error {
	var (
		scale        = flag.Int("scale", 5000, "ranked-list length")
		seed         = flag.Int64("seed", 2020, "generator seed")
		year         = flag.Int("year", 2020, "snapshot year (2016 or 2020)")
		addr         = flag.String("addr", "127.0.0.1:5353", "listen address (UDP and TCP)")
		httpAddr     = flag.String("http", "", "serve the query API, /metrics, /debug/vars and /debug/pprof on this address")
		prewarm      = flag.Bool("prewarm", false, "build the analysis snapshot at startup (in the background) instead of on the first query")
		delta        = flag.Bool("allow-delta", false, "enable the mutating POST /v1/delta endpoint (incremental snapshot edits; see docs/incremental.md)")
		verbose      = flag.Bool("v", false, "log every query")
		zonefile     = flag.String("zonefile", "", "additionally serve a zone from this RFC 1035 master file (it joins the world the snapshot builds measure)")
		export       = flag.String("export", "", "write the zone of this domain to stdout as a master file and exit")
		chainsOn     = flag.Bool("chains", false, "measure transitive resource-inclusion chains in the analysis snapshot and serve GET /v1/chains (see docs/chains.md)")
		memBudgetStr = flag.String("mem-budget", "", "soft live-heap limit for snapshot builds, e.g. 8GiB (checked at batch boundaries; a budgeted build measures the snapshots one after the other, so besides the served world it holds one world at a time; see docs/scale.md)")
	)
	flag.Parse()

	var memBudget uint64
	if *memBudgetStr != "" {
		b, err := membudget.Parse(*memBudgetStr)
		if err != nil {
			return err
		}
		memBudget = b
	}

	snap := ecosystem.Y2020
	if *year == 2016 {
		snap = ecosystem.Y2016
	} else if *year != 2020 {
		return fmt.Errorf("unsupported year %d", *year)
	}

	var chainCfg *chain.Config
	if *chainsOn {
		cfg := chain.Default()
		chainCfg = &cfg
	}
	c, err := materialize(*scale, *seed, snap, chainCfg)
	if err != nil {
		return err
	}
	world := c.World()
	log.Printf("materialized %s snapshot: %d sites, %d zones",
		snap, len(world.Sites), world.Zones.ZoneCount())

	if *export != "" {
		z := world.Zones.FindZone(*export)
		if z == nil {
			return fmt.Errorf("no zone of authority for %q", *export)
		}
		_, err := z.WriteTo(os.Stdout)
		return err
	}
	if *zonefile != "" {
		origin, err := addZoneFile(world.Zones, *zonefile)
		if err != nil {
			return err
		}
		log.Printf("loaded extra zone %s from %s", origin, *zonefile)
	}

	cfg := dnsserver.Config{Addr: *addr}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv := dnsserver.New(world.Zones, cfg)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Bring the admin endpoint up before blocking on the DNS server, but
	// tie both to the same signal context: whichever fails first cancels
	// the other, and SIGTERM shuts both down cleanly. The channel holds one
	// slot per sender (admin + DNS) so whichever loses the select race below
	// still completes its send and exits instead of blocking forever.
	errc := make(chan error, 2)
	if *httpAddr != "" {
		// The query API serves immutable analysis snapshots built by this
		// manager, one build at a time, each measuring the world the DNS
		// listener serves. Builds run under the signal context, so SIGTERM
		// cancels a measurement in flight; a failed build is retried with
		// backoff on the next request, never cached.
		opts := []serve.Option{serve.WithSeed(*seed)}
		if *delta {
			opts = append(opts, serve.WithDeltaAPI())
		}
		mgr := serve.NewManager(ctx, builder(c, analysis.Options{
			Scale: *scale, Seed: *seed, Chains: chainCfg, MemBudget: memBudget,
		}), opts...)
		if *prewarm {
			mgr.Prewarm()
		}
		hs, err := startAdmin(*httpAddr, mgr, errc)
		if err != nil {
			return err
		}
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := hs.Shutdown(shutCtx); err != nil {
				log.Printf("admin shutdown: %v", err)
			}
		}()
	}

	go func() { errc <- srv.Run(ctx) }()
	select {
	case err := <-errc:
		stop() // a listener died; unwind the other one
		return err
	case <-ctx.Done():
		err := <-errc // srv.Run closes on ctx cancellation
		log.Printf("served %d queries", srv.Queries())
		return err
	}
}

// startAdmin binds httpAddr and serves the admin mux (see newAdminMux in
// admin.go). Listener errors after startup are reported on errc.
func startAdmin(httpAddr string, mgr *serve.Manager, errc chan<- error) (*http.Server, error) {
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return nil, fmt.Errorf("admin listen %s: %w", httpAddr, err)
	}
	hs := &http.Server{Handler: newAdminMux(mgr)}
	log.Printf("admin endpoint on http://%s/metrics (also /v1/sites, /v1/providers, /v1/snapshot, /v1/delta, /v1/diff, /incident, /debug/vars, /debug/pprof)", ln.Addr())
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- fmt.Errorf("admin serve: %w", err)
		}
	}()
	return hs, nil
}

// materialize generates the process's one universe and materializes the
// listener's snapshot of it once: provider zones, the chain vendors' zones
// under -chains, then every site's zones. The DNS listener serves this
// world, and every snapshot build measures it in place (builder), so a
// depserver holds one universe and one world of its year. No landing page
// is built here; a build makes and releases them batch by batch.
func materialize(scale int, seed int64, snap ecosystem.Snapshot, chains *chain.Config) (*ecosystem.Chunked, error) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	c := ecosystem.NewChunked(u, snap)
	if chains != nil && chains.Enabled() {
		c.EnableChains(*chains)
	}
	c.AddSites(0, c.Len())
	return c, nil
}

// builder is the serve manager's snapshot build: an analysis run over c's
// universe that measures c's world in place and materializes only the
// other year. The manager runs one build at a time, which Execute needs of
// a shared world; a retried build re-measures the same world.
func builder(c *ecosystem.Chunked, opts analysis.Options) serve.Builder {
	opts.Materialized = c
	return func(ctx context.Context) (*analysis.Run, error) {
		return analysis.Execute(ctx, opts)
	}
}

// addZoneFile parses the RFC 1035 master file at path into store. The
// zone is then part of the world the snapshot builds measure, not only of
// what the listener serves.
func addZoneFile(store *dnszone.Store, path string) (origin string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	z, err := dnszone.ParseZone(f)
	f.Close()
	if err != nil {
		return "", err
	}
	store.AddZone(z)
	return z.Origin, nil
}
