package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/strictjson"
	"depscope/internal/telemetry"
)

// Live graph deltas. ApplyDelta takes the published snapshot, applies a
// core.Delta to one of its measured graphs, and republishes the result as a
// new immutable snapshot through the same atomic pointer every query reads —
// no cold rebuild, no measurement re-run. The carried metrics engine makes
// the republish cheap (the rankings recomputed at publish time hit the
// patched propagation), and readers are never exposed to intermediate state:
// they see the old snapshot until the single atomic store, then the new one.
//
// The API is admin-gated: POST /v1/delta answers 403 unless the manager was
// built WithDeltaAPI (depserver -allow-delta). GET /v1/diff serves the
// change surface of the last applied delta and is always available.

var (
	telDeltaApplies = telemetry.Counter("delta_applies_total",
		"graph deltas applied and republished through the snapshot pointer")
	telDeltaRejected = telemetry.Counter("delta_rejected_total",
		"graph deltas rejected by validation (unknown site, bad op, ...)")
	telDeltaConflicts = telemetry.Counter("delta_conflicts_total",
		"graph deltas refused because their base version no longer matched the published snapshot")
	telDeltaOps = telemetry.Counter("delta_ops_total",
		"individual delta operations applied")
	telDeltaPatched = telemetry.Counter("delta_patched_entries_total",
		"cached metric entries carried incrementally across applied deltas")
	telDeltaRebuilds = telemetry.Counter("delta_engine_rebuilds_total",
		"applied deltas whose metrics engine could not be carried and was rebuilt from scratch")
	telDeltaSeconds = telemetry.Histogram("delta_apply_seconds",
		"wall-clock duration of delta application and snapshot republish", nil)
)

// ErrVersionConflict marks a delta whose base version no longer matches the
// published snapshot (someone else published in between). The API maps it
// to 409.
var ErrVersionConflict = errors.New("serve: delta base version conflict")

// ErrNoSnapshot marks a delta arriving before any snapshot is published.
var ErrNoSnapshot = errors.New("serve: no snapshot published yet")

// DeltaInfo records how the current snapshot was derived from its
// predecessor, served at GET /v1/diff.
type DeltaInfo struct {
	// BaseVersion is the snapshot version the delta was applied to.
	BaseVersion uint64 `json:"base_version"`
	// Snapshot names the measured graph the delta edited ("2016"/"2020").
	Snapshot string `json:"snapshot"`
	// AppliedAt is the publish time.
	AppliedAt time.Time `json:"applied_at"`
	// Stats reports what the application touched.
	Stats core.ApplyStats `json:"stats"`
	// Diff is the change surface against the predecessor snapshot.
	Diff *analysis.GraphDiff `json:"diff"`
}

// WithDeltaAPI enables the POST /v1/delta endpoint (depserver -allow-delta).
// ApplyDelta itself always works for in-process callers; the option only
// gates the HTTP surface.
func WithDeltaAPI() Option {
	return func(m *Manager) { m.allowDelta = true }
}

// ApplyDelta applies d to the named measured graph ("", "2016" or "2020") of
// the published snapshot and republishes the result as a new snapshot.
// baseVersion 0 means "whatever is current"; any other value must match the
// published version or the call fails with ErrVersionConflict — the
// compare-and-swap callers use to serialize concurrent editors.
func (m *Manager) ApplyDelta(snapshotName string, d core.Delta, baseVersion uint64) (*Snapshot, error) {
	// The manager mutex serializes delta publishes against build publishes
	// and other deltas; readers stay lock-free on the atomic pointer.
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur == nil {
		return nil, ErrNoSnapshot
	}
	if baseVersion != 0 && baseVersion != cur.Version {
		telDeltaConflicts.Inc()
		return nil, fmt.Errorf("%w: delta targets version %d, published is %d",
			ErrVersionConflict, baseVersion, cur.Version)
	}
	v, err := cur.view(snapshotName)
	if err != nil {
		telDeltaRejected.Inc()
		return nil, err
	}
	start := m.now()
	ng, stats, err := v.data.Graph.Apply(d)
	if err != nil {
		telDeltaRejected.Inc()
		return nil, err
	}
	// Rebuild the run wrapper around the patched graph: World and Results are
	// untouched measurement artifacts and stay shared.
	nd := &analysis.SnapshotData{
		Snapshot: v.data.Snapshot,
		World:    v.data.World,
		Results:  v.data.Results,
		Graph:    ng,
	}
	nrun := *cur.Run
	if v.name == "2016" {
		nrun.Y2016 = nd
	} else {
		nrun.Y2020 = nd
	}
	m.version++
	finish := m.now()
	snap := newSnapshot(&nrun, m.version, cur.Seed, finish, finish.Sub(start))
	snap.delta = &DeltaInfo{
		BaseVersion: cur.Version,
		Snapshot:    v.name,
		AppliedAt:   finish,
		Stats:       stats,
		Diff:        analysis.DiffGraphs(v.data.Graph, ng),
	}
	m.cur.Store(snap)
	telVersion.Set(int64(snap.Version))
	telDeltaApplies.Inc()
	telDeltaOps.Add(int64(stats.Ops))
	telDeltaPatched.Add(int64(stats.PatchedEntries))
	if stats.Rebuilt {
		telDeltaRebuilds.Inc()
	}
	telDeltaSeconds.ObserveDuration(snap.BuildDuration)
	return snap, nil
}

// deltaRequest is the POST /v1/delta body.
type deltaRequest struct {
	// Snapshot selects the measured graph to edit; empty means 2020.
	Snapshot string `json:"snapshot,omitempty"`
	// BaseVersion, when non-zero, must match the published snapshot version
	// (compare-and-swap for concurrent editors).
	BaseVersion uint64 `json:"base_version,omitempty"`
	// Delta is the edit in the core wire format.
	Delta core.Delta `json:"delta"`
}

// handleDelta is POST /v1/delta.
func (m *Manager) handleDelta(w http.ResponseWriter, r *http.Request) {
	if !m.allowDelta {
		httpError(w, http.StatusForbidden, "the delta API is disabled (start depserver with -allow-delta)")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req deltaRequest
	if err := strictjson.Decode(bytes.NewReader(body), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad delta request: %v", err)
		return
	}
	if len(req.Delta.Ops) == 0 {
		httpError(w, http.StatusBadRequest, "delta has no operations")
		return
	}
	snap, err := m.ApplyDelta(req.Snapshot, req.Delta, req.BaseVersion)
	switch {
	case errors.Is(err, ErrVersionConflict):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrNoSnapshot):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": snap.Version,
		"delta":   snap.delta,
	})
}

// handleDiff is GET /v1/diff: the change surface of the last applied delta.
func (m *Manager) handleDiff(w http.ResponseWriter, r *http.Request) {
	s := m.Current()
	if s == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", ErrNoSnapshot)
		return
	}
	if s.delta == nil {
		httpError(w, http.StatusNotFound,
			"snapshot version %d was built from scratch; no delta diff recorded", s.Version)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": s.Version,
		"delta":   s.delta,
	})
}
