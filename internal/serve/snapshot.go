// Package serve is depserver's query layer: immutable, versioned analysis
// snapshots published through an atomic pointer, a manager that builds them
// off the request path (coalescing concurrent cold requests into one build
// and retrying failed builds with backoff instead of caching the error),
// and the /v1 JSON query API plus /incident mounted on the admin mux.
//
// The hot path is lock-free by construction: a request does one atomic
// pointer load to pick up the current snapshot and then only reads
// immutable data — site lookups are map reads on the measured graph,
// provider rankings are precomputed slices frozen at build time. Builds,
// swaps and failure bookkeeping all happen behind the pointer.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/telemetry"
)

// Build-duration buckets: analysis runs span milliseconds (test scale) to
// minutes (the paper's 100K sites), beyond the default latency ladder.
var buildBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

var (
	telBuilds = telemetry.Counter("serve_snapshot_builds_total",
		"analysis snapshot builds completed and published to the query API")
	telBuildFailures = telemetry.Counter("serve_snapshot_build_failures_total",
		"analysis snapshot builds that failed (retried with backoff, never cached)")
	telCoalesced = telemetry.Counter("serve_snapshot_coalesced_total",
		"cold-snapshot requests that joined an already in-flight build instead of starting their own")
	telVersion = telemetry.Gauge("serve_snapshot_version",
		"version of the currently published snapshot (0 until the first build lands)")
	telBuilding = telemetry.Gauge("serve_snapshot_building",
		"1 while a snapshot build is in flight")
	telBuildSeconds = telemetry.Histogram("serve_snapshot_build_seconds",
		"wall-clock duration of analysis snapshot builds", buildBuckets)
)

// Builder produces the analysis run a snapshot freezes. The context is the
// server lifecycle: a SIGTERM mid-build cancels the measurement instead of
// leaving it running detached.
type Builder func(ctx context.Context) (*analysis.Run, error)

// ProviderRank is one row of a precomputed provider ranking.
type ProviderRank struct {
	Rank          int    `json:"rank"`
	Name          string `json:"name"`
	Service       string `json:"service"`
	Concentration int    `json:"concentration"`
	Impact        int    `json:"impact"`
}

type rankKey struct {
	svc      core.Service
	byImpact bool
}

// snapView is the frozen per-snapshot ("2016"/"2020") query state.
type snapView struct {
	name  string
	data  *analysis.SnapshotData
	sites []string // rank order
	// rankings holds the full provider ranking per (service, metric),
	// computed once at build time so top-K queries are a slice expression.
	rankings map[rankKey][]ProviderRank
}

// Snapshot is one immutable, versioned view over a completed analysis run.
// Everything reachable from it is read-only after newSnapshot returns.
type Snapshot struct {
	Version       uint64
	BuiltAt       time.Time
	BuildDuration time.Duration
	Scale         int
	Seed          int64
	Run           *analysis.Run

	views map[string]*snapView
	// delta records how this snapshot was derived from its predecessor by
	// Manager.ApplyDelta; nil for snapshots built from scratch.
	delta *DeltaInfo
}

func newSnapshot(run *analysis.Run, version uint64, seed int64, builtAt time.Time, dur time.Duration) *Snapshot {
	s := &Snapshot{
		Version:       version,
		BuiltAt:       builtAt,
		BuildDuration: dur,
		Scale:         run.Scale,
		Seed:          seed,
		Run:           run,
		views:         make(map[string]*snapView),
	}
	for _, name := range []string{"2016", "2020"} {
		names, err := analysis.SiteNames(run, name)
		if err != nil {
			continue // snapshot not measured in this run
		}
		v := &snapView{
			name:     name,
			sites:    names,
			rankings: make(map[rankKey][]ProviderRank),
		}
		if name == "2016" {
			v.data = run.Y2016
		} else {
			v.data = run.Y2020
		}
		for _, svc := range core.Services {
			for _, byImpact := range []bool{false, true} {
				stats, err := analysis.RankedProviders(run, name, svc, byImpact)
				if err != nil {
					continue
				}
				ranked := make([]ProviderRank, len(stats))
				for i, st := range stats {
					ranked[i] = ProviderRank{
						Rank:          i + 1,
						Name:          st.Name,
						Service:       strings.ToLower(svc.String()),
						Concentration: st.Concentration,
						Impact:        st.Impact,
					}
				}
				v.rankings[rankKey{svc, byImpact}] = ranked
			}
		}
		s.views[name] = v
	}
	return s
}

// view resolves a request's snapshot parameter ("", "2016", "2020"). The
// bool distinguishes "no such snapshot name" (false → 400) from a valid
// name that this run did not measure (also 400, different message).
func (s *Snapshot) view(name string) (*snapView, error) {
	switch name {
	case "", "2016", "2020":
	default:
		return nil, fmt.Errorf("unknown snapshot %q (want 2016 or 2020)", name)
	}
	v, ok := s.views[analysis.CanonicalSnapshot(name)]
	if !ok {
		return nil, fmt.Errorf("the %s snapshot was not measured in this run", analysis.CanonicalSnapshot(name))
	}
	return v, nil
}

// buildCall is one in-flight build every concurrent cold request joins.
// snap/err are written before done is closed and read only after.
type buildCall struct {
	done chan struct{}
	snap *Snapshot
	err  error
}

// Status reports the manager's build-side state for /v1/snapshot when no
// snapshot is published yet.
type Status struct {
	Building  bool          `json:"building"`
	LastError string        `json:"last_error,omitempty"`
	RetryIn   time.Duration `json:"-"`
}

// Manager owns the snapshot lifecycle: it runs Builder off the request
// path, publishes successful builds through an atomic pointer, coalesces
// concurrent cold requests into one build, and gates rebuild attempts after
// a failure behind exponential backoff — a failed build is retried, never
// cached for the process lifetime.
type Manager struct {
	build     Builder
	lifecycle context.Context // cancels in-flight builds on server shutdown

	cur     atomic.Pointer[Snapshot]
	version uint64 // guarded by mu; published versions are monotonic

	mu       sync.Mutex
	inflight *buildCall
	failures int
	lastErr  error
	nextTry  time.Time

	minRetry, maxRetry time.Duration
	buildInfoSeed      int64
	allowDelta         bool             // gates POST /v1/delta (WithDeltaAPI)
	now                func() time.Time // test hook
}

// NewManager creates a manager whose builds run under lifecycle: cancelling
// that context aborts any in-flight build and every later attempt.
func NewManager(lifecycle context.Context, build Builder, opts ...Option) *Manager {
	m := &Manager{
		build:     build,
		lifecycle: lifecycle,
		minRetry:  time.Second,
		maxRetry:  30 * time.Second,
		now:       time.Now,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Option configures a Manager.
type Option func(*Manager)

// WithBackoff sets the failure-retry window: after the Nth consecutive
// failure the next build attempt is gated min<<(N-1) away, capped at max.
// It is a test hook: tests shorten the window; depserver keeps the default
// of 1s doubling to 30s.
func WithBackoff(min, max time.Duration) Option {
	return func(m *Manager) { m.minRetry, m.maxRetry = min, max }
}

// WithSeed records the generator seed for /v1/snapshot metadata (the run
// itself only carries the scale).
func WithSeed(seed int64) Option {
	return func(m *Manager) { m.buildInfoSeed = seed }
}

// Current returns the published snapshot, or nil before the first
// successful build. It is the request hot path: one atomic load.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// Get returns the current snapshot, building one if none is published.
// Concurrent cold callers coalesce into a single build; ctx cancellation
// detaches the caller without aborting the shared build (the build itself
// runs under the manager's lifecycle context). After a failed build, Get
// returns the failure until the backoff window elapses, then retries.
func (m *Manager) Get(ctx context.Context) (*Snapshot, error) {
	if s := m.cur.Load(); s != nil {
		return s, nil
	}
	snap, call, err := m.startOrJoin()
	if err != nil {
		return nil, err
	}
	if snap != nil {
		return snap, nil
	}
	select {
	case <-call.done:
		return call.snap, call.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Prewarm kicks off the initial build in the background and keeps retrying
// (honoring the backoff gate) until a build succeeds or the lifecycle
// context ends. It returns immediately.
func (m *Manager) Prewarm() {
	go func() {
		for m.lifecycle.Err() == nil {
			if _, err := m.Get(m.lifecycle); err == nil {
				return
			}
			m.mu.Lock()
			wait := m.nextTry.Sub(m.now())
			m.mu.Unlock()
			if wait < 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			t := time.NewTimer(wait)
			select {
			case <-m.lifecycle.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
	}()
}

// Status reports build-side state (never touched on the warm hot path).
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{Building: m.inflight != nil}
	if m.lastErr != nil {
		st.LastError = m.lastErr.Error()
		if d := m.nextTry.Sub(m.now()); d > 0 {
			st.RetryIn = d
		}
	}
	return st
}

// startOrJoin returns either an already-published snapshot (double-checked
// under the lock), an in-flight or freshly started build to wait on, or the
// backoff-gated last failure.
func (m *Manager) startOrJoin() (*Snapshot, *buildCall, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.inflight; c != nil {
		telCoalesced.Inc()
		return nil, c, nil
	}
	if s := m.cur.Load(); s != nil {
		return s, nil, nil
	}
	if m.failures > 0 && m.now().Before(m.nextTry) {
		return nil, nil, fmt.Errorf("serve: snapshot build failed (next retry in %s): %w",
			m.nextTry.Sub(m.now()).Round(time.Millisecond), m.lastErr)
	}
	if err := m.lifecycle.Err(); err != nil {
		return nil, nil, fmt.Errorf("serve: server shutting down: %w", err)
	}
	c := &buildCall{done: make(chan struct{})}
	m.inflight = c
	telBuilding.Set(1)
	go m.runBuild(c)
	return nil, c, nil
}

// runBuild executes one build under the lifecycle context and publishes or
// records the failure.
func (m *Manager) runBuild(c *buildCall) {
	start := m.now()
	run, err := m.build(m.lifecycle)
	if err == nil && run == nil {
		err = fmt.Errorf("serve: builder returned no run")
	}
	finish := m.now()

	m.mu.Lock()
	m.inflight = nil
	telBuilding.Set(0)
	if err != nil {
		m.failures++
		m.lastErr = err
		backoff := m.minRetry << (m.failures - 1)
		if backoff > m.maxRetry || backoff <= 0 {
			backoff = m.maxRetry
		}
		m.nextTry = finish.Add(backoff)
		telBuildFailures.Inc()
		m.mu.Unlock()
		c.err = err
		close(c.done)
		return
	}
	m.version++
	snap := newSnapshot(run, m.version, m.buildInfoSeed, finish, finish.Sub(start))
	m.failures = 0
	m.lastErr = nil
	m.cur.Store(snap)
	telVersion.Set(int64(snap.Version))
	telBuilds.Inc()
	telBuildSeconds.ObserveDuration(snap.BuildDuration)
	m.mu.Unlock()
	c.snap = snap
	close(c.done)
}

// Register mounts the query API on mux: the /v1 endpoints and /incident,
// each wrapped with per-endpoint telemetry. See docs/serving.md.
func Register(mux *http.ServeMux, m *Manager) {
	mux.Handle("GET /v1/snapshot", instrument("snapshot", m.handleSnapshot))
	mux.Handle("GET /v1/sites", instrument("sites", m.handleSites))
	mux.Handle("GET /v1/sites/{name}", instrument("site", m.handleSite))
	mux.Handle("GET /v1/providers", instrument("providers", m.handleProviders))
	mux.Handle("POST /v1/delta", instrument("delta", m.handleDelta))
	mux.Handle("GET /v1/diff", instrument("diff", m.handleDiff))
	mux.Handle("/v1/sweep", instrument("sweep", m.handleSweep))
	mux.Handle("GET /v1/chains", instrument("chains", m.handleChains))
	mux.Handle("GET /v1/mitigation", instrument("mitigation", m.handleMitigation))
	mux.Handle("/incident", instrument("incident", m.handleIncident))
}
