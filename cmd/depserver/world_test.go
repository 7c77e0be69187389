package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/dnsserver"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
	"depscope/internal/resolver"
	"depscope/internal/serve"
	"depscope/internal/telemetry"
)

// outsideZone is a master file whose origin is in no universe: the
// generator names nothing under .invalid.
const outsideZone = `$ORIGIN zonefile-test.invalid.
$TTL 300
@   IN SOA ns1.zonefile-test.invalid. hostmaster.zonefile-test.invalid. 1 3600 600 86400 300
@   IN NS  ns1.zonefile-test.invalid.
ns1 IN A   192.0.2.53
www IN A   192.0.2.80
`

// sharedWorld is one depserver configuration: the listener's year and
// -chains.
type sharedWorld struct {
	name   string
	snap   ecosystem.Snapshot
	chains *chain.Config
}

var defaultChains = chain.Default()

var sharedWorlds = []sharedWorld{
	{"plain", ecosystem.Y2020, nil},
	{"chains", ecosystem.Y2020, &defaultChains},
	{"year2016", ecosystem.Y2016, nil},
}

// publish builds and publishes one snapshot through a serve manager, as
// depserver does, and returns it with the admin mux that serves it.
func publish(t *testing.T, build serve.Builder) (*serve.Snapshot, http.Handler) {
	t.Helper()
	mgr := serve.NewManager(context.Background(), build)
	snap, err := mgr.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap, newAdminMux(mgr)
}

// servedBytes is every response the published snapshot's rankings, site
// breakdowns, incident presets and chain summaries give, keyed by request.
func servedBytes(t *testing.T, run *analysis.Run, mux http.Handler) map[string]string {
	t.Helper()
	paths := []string{"/incident"}
	for _, name := range incident.PresetNames() {
		paths = append(paths, "/incident?preset="+name)
	}
	for _, year := range []string{"2016", "2020"} {
		for _, svc := range []string{"dns", "cdn", "ca"} {
			for _, metric := range []string{"cp", "ip"} {
				paths = append(paths, fmt.Sprintf("/v1/providers?snapshot=%s&service=%s&metric=%s&top=0", year, svc, metric))
			}
		}
		paths = append(paths, "/v1/chains?top=0&snapshot="+year)
		names, err := analysis.SiteNames(run, year)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			paths = append(paths, "/v1/sites/"+name+"?snapshot="+year)
		}
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		out[p] = fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	return out
}

// generations counts the analysis runs that generated their own universe.
func generations() int64 {
	return telemetry.Default.Histogram("analysis_generate_seconds", "", nil).Count()
}

// TestSharedWorldGolden holds depserver's build wiring to one universe and
// one world per process: the snapshot build measures the world the
// listener serves (the listener's *dnszone.Store is the measured world's
// store, and no second universe is generated), and the published rankings,
// site breakdowns, incident reports and chain summaries are byte-identical
// to a standalone Execute's, although a -zonefile zone outside the universe
// joined the measured world.
func TestSharedWorldGolden(t *testing.T) {
	zonefile := filepath.Join(t.TempDir(), "outside.zone")
	if err := os.WriteFile(zonefile, []byte(outsideZone), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2020} {
		for _, sw := range sharedWorlds {
			t.Run(fmt.Sprintf("%s/seed%d", sw.name, seed), func(t *testing.T) {
				opts := analysis.Options{Scale: 2000, Seed: seed, Chains: sw.chains}
				c, err := materialize(opts.Scale, seed, sw.snap, sw.chains)
				if err != nil {
					t.Fatal(err)
				}
				store := c.World().Zones
				if _, err := addZoneFile(store, zonefile); err != nil {
					t.Fatal(err)
				}
				gens := generations()
				shared, sharedMux := publish(t, builder(c, opts))
				if n := generations() - gens; n != 0 {
					t.Errorf("the build generated %d more universes", n)
				}
				run := shared.Run
				if run.Universe != c.Universe() {
					t.Error("the build measured another universe than the listener's")
				}
				switch sw.snap {
				case ecosystem.Y2020:
					if run.Y2020.World.Zones != store {
						t.Error("the measured 2020 world's zone store is not the listener's")
					}
				case ecosystem.Y2016:
					if run.Y2016.World != nil {
						t.Error("the 2016 world is still held by the run")
					}
					if run.Y2020.World.Zones == store {
						t.Error("the 2020 snapshot measured the listener's 2016 store")
					}
				}
				if len(c.World().Pages) != 0 {
					t.Errorf("%d landing pages left in the listener's world", len(c.World().Pages))
				}

				alone, aloneMux := publish(t, func(ctx context.Context) (*analysis.Run, error) {
					return analysis.Execute(ctx, opts)
				})
				got, want := servedBytes(t, run, sharedMux), servedBytes(t, alone.Run, aloneMux)
				if len(got) != len(want) {
					t.Fatalf("%d responses from the shared world, %d from a standalone run", len(got), len(want))
				}
				diffs := 0
				for p, w := range want {
					if got[p] != w {
						if diffs++; diffs <= 3 {
							t.Errorf("GET %s differs from a standalone run:\nshared: %.200s\nalone:  %.200s", p, got[p], w)
						}
					}
				}
				if diffs > 3 {
					t.Errorf("%d responses differ in all", diffs)
				}
			})
		}
	}
}

// TestSharedWorldServesWhileMeasuring answers DNS queries from the listener
// while snapshot builds measure the same world: the builds write and drop
// landing pages in the World the listener reads zones from (run it under
// -race). A second build, as a retry or a rebuild runs it, measures the
// same world again and publishes the same rankings.
func TestSharedWorldServesWhileMeasuring(t *testing.T) {
	c, err := materialize(1000, 2020, ecosystem.Y2020, &defaultChains)
	if err != nil {
		t.Fatal(err)
	}
	srv := dnsserver.New(c.World().Zones, dnsserver.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, stop := context.WithCancel(context.Background())
	var answered atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := resolver.New(resolver.NewUDPTransport(addr))
		sites := c.World().Sites
		for i := 0; ctx.Err() == nil; i++ {
			r.FlushCache()
			ns, err := r.NS(ctx, sites[i%len(sites)])
			if err != nil {
				if ctx.Err() == nil {
					t.Errorf("NS %s: %v", sites[i%len(sites)], err)
				}
				return
			}
			if len(ns) == 0 {
				t.Errorf("NS %s: no nameservers", sites[i%len(sites)])
				return
			}
			answered.Add(1)
		}
	}()

	mgr := serve.NewManager(context.Background(), builder(c, analysis.Options{
		Scale: 1000, Seed: 2020, Chains: &defaultChains, MemBudget: 4 << 30,
	}))
	first, getErr := mgr.Get(context.Background())
	second, err := mgr.Rebuild(context.Background())
	stop()
	wg.Wait()
	if getErr != nil || err != nil {
		t.Fatalf("build: %v; rebuild: %v", getErr, err)
	}
	if answered.Load() == 0 {
		t.Error("the listener answered no query during the builds")
	}
	for _, name := range []string{"2016", "2020"} {
		a, err := analysis.RankedProviders(first.Run, name, core.DNS, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := analysis.RankedProviders(second.Run, name, core.DNS, true)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: a rebuild over the same world ranked DNS providers differently", name)
		}
	}
}
