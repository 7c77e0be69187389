package analysis

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depscope/internal/ecosystem"
)

// collected runs the collector until done reports true or a second has
// passed, and returns done's last answer.
func collected(done *atomic.Bool) bool {
	for deadline := time.Now().Add(time.Second); !done.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return done.Load()
}

// TestExecuteReleases2016World holds the worlds' lifetimes: nothing keeps
// the 2016 world once its graph is built, so it is collected while the run
// that measured it is still live, and a budgeted run, which measures the
// snapshots one after the other, has collected it before the 2020
// snapshot's zones are materialized.
func TestExecuteReleases2016World(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{{"concurrent", 0}, {"budgeted", 4 << 30}} {
		t.Run(tc.name, func(t *testing.T) {
			var gone, goneBefore2020 atomic.Bool
			hookNewChunked(t, func(u *ecosystem.Universe, snap ecosystem.Snapshot) *ecosystem.Chunked {
				if snap == ecosystem.Y2020 && tc.budget > 0 {
					goneBefore2020.Store(collected(&gone))
				}
				c := ecosystem.NewChunked(u, snap)
				if snap == ecosystem.Y2016 {
					runtime.SetFinalizer(c.World(), func(*ecosystem.World) { gone.Store(true) })
				}
				return c
			})
			run, err := Execute(context.Background(), Options{Scale: 1000, Seed: 2020, MemBudget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			if !collected(&gone) {
				t.Fatal("the 2016 world is still reachable after Execute returned")
			}
			if tc.budget > 0 && !goneBefore2020.Load() {
				t.Error("the 2016 world was still reachable when the 2020 snapshot's zones were materialized")
			}
			if run.Y2020.World == nil {
				t.Error("the 2020 world, which validation reads, was released")
			}
			runtime.KeepAlive(run)
		})
	}
}

// TestExecuteMeasuresMaterializedInPlace measures a world its caller
// materialized, as depserver does: Execute starts only the other year's
// world, keeps the caller's as the 2020 World, and reports byte-identically
// to a run that materialized its own. A run cut short mid-measurement
// leaves no page behind, and a retry over the same world reports the same
// bytes. A world of other options is refused.
func TestExecuteMeasuresMaterializedInPlace(t *testing.T) {
	opts := Options{Scale: 1000, Seed: 1, Chains: &defaultChains, BatchSize: 300}
	want := reportHash(mustExecute(t, opts))

	u, err := ecosystem.Generate(ecosystem.Options{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	c := ecosystem.NewChunked(u, ecosystem.Y2020)
	c.EnableChains(defaultChains)
	c.AddSites(0, c.Len())
	shared := opts
	shared.Materialized = c

	var mu sync.Mutex
	var started []ecosystem.Snapshot
	ctx, cancel := context.WithCancel(context.Background())
	hookNewChunked(t, func(u *ecosystem.Universe, snap ecosystem.Snapshot) *ecosystem.Chunked {
		mu.Lock()
		started = append(started, snap)
		mu.Unlock()
		cancel() // cuts the first run short while the 2020 world is measured
		return ecosystem.NewChunked(u, snap)
	})
	if _, err := Execute(ctx, shared); err == nil {
		t.Fatal("a cancelled run succeeded")
	}
	if n := len(c.World().Pages); n != 0 {
		t.Errorf("the cancelled run left %d pages in the world", n)
	}
	for i := 0; i < 2; i++ {
		run := mustExecute(t, shared)
		if run.Universe != u || run.Y2020.World != c.World() {
			t.Error("the run measured another universe or 2020 world than the one it was given")
		}
		if got := reportHash(run); got != want {
			t.Errorf("run %d over the materialized world reports %s, a standalone run %s", i, got, want)
		}
	}
	for _, snap := range started {
		if snap != ecosystem.Y2016 {
			t.Errorf("Execute materialized a %s world although it was given one", snap)
		}
	}

	otherChains := defaultChains
	otherChains.Seed++
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"seed", func(o *Options) { o.Seed++ }},
		{"scale", func(o *Options) { o.Scale++ }},
		{"chains off", func(o *Options) { o.Chains = nil }},
		{"other chains", func(o *Options) { o.Chains = &otherChains }},
	} {
		bad := shared
		tc.edit(&bad)
		if _, err := Execute(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "materialized world") {
			t.Errorf("%s: Execute error = %v, want a materialized-world mismatch", tc.name, err)
		}
	}
}

func mustExecute(t *testing.T, opts Options) *Run {
	t.Helper()
	run, err := Execute(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return run
}
