package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/incident"
	"depscope/internal/telemetry"
)

// The /v1 JSON query API. Every handler follows the same shape: resolve the
// snapshot with one atomic load (building it only when cold, coalesced with
// every other cold request), then answer from immutable data — no locks,
// no shared mutable state, per-request cancellation honored while waiting
// on a cold build.

var (
	telInflight = telemetry.Gauge("serve_inflight_requests",
		"query-API requests currently being handled")
	telWriteErrors = telemetry.Counter("serve_write_errors_total",
		"JSON responses that failed to encode or write (truncated responses under load)")
)

// logf is the package logger, a variable so tests can silence or capture it.
var logf = log.Printf

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with its per-endpoint telemetry: a request
// counter, an error counter (status >= 400) and a latency histogram, plus
// the shared in-flight gauge. Metric handles are created once at Register
// time; the per-request work is a few atomic adds.
func instrument(name string, h http.HandlerFunc) http.Handler {
	reqs := telemetry.Counter("serve_"+name+"_requests_total",
		"requests handled by the "+name+" endpoint")
	errs := telemetry.Counter("serve_"+name+"_errors_total",
		"requests the "+name+" endpoint answered with status >= 400")
	lat := telemetry.Histogram("serve_"+name+"_seconds",
		"request latency of the "+name+" endpoint", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		telInflight.Add(1)
		defer telInflight.Add(-1)
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if sw.status >= 400 {
			errs.Inc()
		}
		lat.ObserveDuration(time.Since(start))
	})
}

// writeJSON writes v with the given status. Encode/write failures (a client
// gone mid-response, a full socket buffer under load) are counted and
// logged so truncated responses are visible instead of silent.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		telWriteErrors.Inc()
		logf("serve: write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds the body of every POST endpoint (/incident, /v1/sweep,
// /v1/delta), so one request cannot grow the heap without limit. A scenario
// or sweep spec naming hundreds of providers, or a delta of a few thousand
// ops, fits well inside it.
const maxBodyBytes = 1 << 20

// readBody reads a POST body of at most maxBodyBytes. A longer body is
// answered 413 and a failed read 400; either way it returns false after
// writing the error.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return nil, false
	case err != nil:
		httpError(w, http.StatusBadRequest, "read request body: %v", err)
		return nil, false
	}
	return b, true
}

// snapshot resolves the snapshot for a query request, mapping a cold-build
// failure to 503 (the build will be retried) and request cancellation to
// the client-gone status. It returns nil after writing the error.
func (m *Manager) snapshot(w http.ResponseWriter, r *http.Request) *Snapshot {
	s, err := m.Get(r.Context())
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			// The client gave up while the cold build was running; the build
			// itself keeps going for the next caller.
			httpError(w, http.StatusRequestTimeout, "request cancelled: %v", err)
			return nil
		}
		httpError(w, http.StatusServiceUnavailable, "snapshot unavailable: %v", err)
		return nil
	}
	return s
}

// view resolves ?snapshot= against s, writing a 400 on failure.
func (s *Snapshot) viewParam(w http.ResponseWriter, r *http.Request) *snapView {
	v, err := s.view(r.URL.Query().Get("snapshot"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return v
}

// snapshotMeta is the /v1/snapshot response.
type snapshotMeta struct {
	Ready        bool               `json:"ready"`
	Version      uint64             `json:"version,omitempty"`
	BuiltAt      time.Time          `json:"built_at,omitempty"`
	BuildSeconds float64            `json:"build_seconds,omitempty"`
	Scale        int                `json:"scale,omitempty"`
	Seed         int64              `json:"seed,omitempty"`
	Snapshots    []snapshotMetaView `json:"snapshots,omitempty"`
	Building     bool               `json:"building,omitempty"`
	LastError    string             `json:"last_error,omitempty"`
	RetrySeconds float64            `json:"retry_in_seconds,omitempty"`
}

type snapshotMetaView struct {
	Snapshot  string `json:"snapshot"`
	Sites     int    `json:"sites"`
	Providers int    `json:"providers"`
}

// handleSnapshot serves version/build metadata. It never triggers a build:
// before the first snapshot lands it reports the manager's build state, so
// load generators and operators can poll it for readiness.
func (m *Manager) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s := m.Current()
	if s == nil {
		st := m.Status()
		writeJSON(w, http.StatusOK, snapshotMeta{
			Building:     st.Building,
			LastError:    st.LastError,
			RetrySeconds: st.RetryIn.Seconds(),
		})
		return
	}
	meta := snapshotMeta{
		Ready:        true,
		Version:      s.Version,
		BuiltAt:      s.BuiltAt,
		BuildSeconds: s.BuildDuration.Seconds(),
		Scale:        s.Scale,
		Seed:         s.Seed,
	}
	for _, name := range []string{"2016", "2020"} {
		if v, ok := s.views[name]; ok {
			meta.Snapshots = append(meta.Snapshots, snapshotMetaView{
				Snapshot:  name,
				Sites:     len(v.sites),
				Providers: len(v.data.Graph.Providers),
			})
		}
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleSites lists site names in rank order, paged by offset/limit.
func (m *Manager) handleSites(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot(w, r)
	if s == nil {
		return
	}
	v := s.viewParam(w, r)
	if v == nil {
		return
	}
	offset, ok := intParam(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", 100)
	if !ok {
		return
	}
	const maxLimit = 10000
	if limit > maxLimit {
		limit = maxLimit
	}
	names := v.sites
	if offset > len(names) {
		offset = len(names)
	}
	page := names[offset:]
	if len(page) > limit {
		page = page[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": v.name,
		"total":    len(names),
		"offset":   offset,
		"sites":    page,
	})
}

// handleSite serves one site's dependency breakdown.
func (m *Manager) handleSite(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot(w, r)
	if s == nil {
		return
	}
	name := r.PathValue("name")
	view, err := analysis.SiteBreakdown(s.Run, r.URL.Query().Get("snapshot"), name)
	if err != nil {
		if errors.Is(err, analysis.ErrUnknownSite) {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleProviders serves provider rankings off the snapshot's precomputed
// tables: resolving metric/service/top is parsing, the ranking itself is a
// slice expression.
func (m *Manager) handleProviders(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot(w, r)
	if s == nil {
		return
	}
	v := s.viewParam(w, r)
	if v == nil {
		return
	}
	q := r.URL.Query()
	var byImpact bool
	metric := "cp"
	switch q.Get("metric") {
	case "", "cp", "concentration":
	case "ip", "impact":
		byImpact, metric = true, "ip"
	default:
		httpError(w, http.StatusBadRequest, "unknown metric %q (want cp or ip)", q.Get("metric"))
		return
	}
	svc := core.DNS
	svcName := "dns"
	switch strings.ToLower(q.Get("service")) {
	case "", "dns":
	case "cdn":
		svc, svcName = core.CDN, "cdn"
	case "ca":
		svc, svcName = core.CA, "ca"
	default:
		httpError(w, http.StatusBadRequest, "unknown service %q (want dns, cdn or ca)", q.Get("service"))
		return
	}
	top, ok := intParam(w, r, "top", 10)
	if !ok {
		return
	}
	ranked := v.rankings[rankKey{svc, byImpact}]
	page := ranked
	if top > 0 && len(page) > top {
		page = page[:top]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot":  v.name,
		"service":   svcName,
		"metric":    metric,
		"total":     len(ranked),
		"providers": page,
	})
}

// handleIncident answers:
//
//	GET  /incident                 — list the built-in presets (no build)
//	GET  /incident?preset=NAME     — simulate a preset
//	POST /incident                 — simulate the scenario JSON in the body
func (m *Manager) handleIncident(w http.ResponseWriter, r *http.Request) {
	if sc, s := readSpec(m, w, r, "preset", "scenario", incident.PresetNames, incident.Preset, incident.ParseScenario); s != nil {
		rep, err := analysis.SimulateIncident(r.Context(), s.Run, sc)
		writeRun(w, r, rep, err)
	}
}

// handleSweep answers:
//
//	GET  /v1/sweep              — list the built-in sweep presets (no build)
//	GET  /v1/sweep?preset=NAME  — run a preset Monte-Carlo sweep
//	POST /v1/sweep              — run the sweep spec JSON in the body
func (m *Manager) handleSweep(w http.ResponseWriter, r *http.Request) {
	if sp, s := readSpec(m, w, r, "sweep preset", "sweep spec", incident.SweepPresetNames, incident.SweepPreset, incident.ParseSweep); s != nil {
		rep, err := analysis.MonteCarloSweep(r.Context(), s.Run, sp, 0)
		writeRun(w, r, rep, err)
	}
}

// readSpec is the front half of the simulation routes: GET lists the
// presets (names), GET ?preset=NAME loads one (preset), and POST
// strict-decodes the capped body (parse); then the snapshot is resolved.
// It returns a nil snapshot after writing the response: the listing, or
// the error.
func readSpec[T any](m *Manager, w http.ResponseWriter, r *http.Request, presetNoun, bodyNoun string,
	names func() []string, preset func(string) (*T, bool), parse func(io.Reader) (*T, error)) (*T, *Snapshot) {
	switch r.Method {
	case http.MethodGet:
		name := r.URL.Query().Get("preset")
		if name == "" {
			writeJSON(w, http.StatusOK, map[string]any{"presets": names()})
			return nil, nil
		}
		if spec, ok := preset(name); ok {
			return spec, m.snapshot(w, r)
		}
		httpError(w, http.StatusBadRequest, "unknown %s %q (have: %s)", presetNoun, name, strings.Join(names(), ", "))
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return nil, nil
		}
		spec, err := parse(bytes.NewReader(body))
		if err == nil {
			return spec, m.snapshot(w, r)
		}
		httpError(w, http.StatusBadRequest, "bad %s: %v", bodyNoun, err)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
	return nil, nil
}

// writeRun answers a simulation or mitigation route with its report, or
// maps its error: 408 when the request was cancelled, else 400 — the
// request parsed but does not apply to this world (unknown provider,
// missing snapshot, empty pool, ...), so the request is at fault.
func writeRun(w http.ResponseWriter, r *http.Request, rep any, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rep)
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		httpError(w, http.StatusRequestTimeout, "request cancelled: %v", err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleChains serves the implicit-trust chain summary — direct vs
// implicit concentration, the chain-depth histogram and the top
// implicitly-trusted vendors:
//
//	GET /v1/chains?snapshot=2020&top=10
//
// 404 when the run was measured without chains (depserver -chains off):
// absence of chain data is a configuration state, not an empty result.
func (m *Manager) handleChains(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot(w, r)
	if s == nil {
		return
	}
	v := s.viewParam(w, r)
	if v == nil {
		return
	}
	top, ok := intParam(w, r, "top", 10)
	if !ok {
		return
	}
	hasChains := false
	for _, site := range v.data.Graph.Sites {
		if len(site.Chains) > 0 {
			hasChains = true
			break
		}
	}
	if !hasChains {
		httpError(w, http.StatusNotFound,
			"the %s snapshot was measured without chains (start depserver with -chains)", v.name)
		return
	}
	writeJSON(w, http.StatusOK, chain.Summarize(v.data.Graph, top))
}

// handleMitigation serves the greedy mitigation plan:
//
//	GET /v1/mitigation?k=10&snapshot=2020
func (m *Manager) handleMitigation(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot(w, r)
	if s == nil {
		return
	}
	k, ok := intParam(w, r, "k", 10)
	if !ok {
		return
	}
	const maxK = 10000
	if k > maxK {
		k = maxK
	}
	plan, err := analysis.Mitigation(s.Run, k, r.URL.Query().Get("snapshot"))
	writeRun(w, r, plan, err)
}

// intParam parses a non-negative integer query parameter, writing a 400 and
// returning ok=false on bad input.
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, "bad %s %q: want a non-negative integer", name, raw)
		return 0, false
	}
	return n, true
}
