package measure

import (
	"sort"
	"sync"

	"depscope/internal/resolver"
	"depscope/internal/telemetry"
)

// Pipeline-wide telemetry. Per-stage counters are created lazily under the
// collector lock (stage names are dynamic) and cached per stage entry, so
// the steady state is one atomic add per observation.
var uncharacterizedSites = telemetry.Counter("measure_uncharacterized_sites_total",
	"sites whose DNS measurement ended uncharacterized (dead site or no classifiable pair)")

// maxRecordedErrors caps Diagnostics.Errors so a run over a mostly-dead list
// (100K sites, live resolver) cannot balloon the result; the per-stage
// counters always hold the full totals.
const maxRecordedErrors = 256

// Diagnostics reports what the pipeline runtime observed during a run:
// per-stage progress counters, the resolver's query and cache counters,
// and — under conc.Collect — the recorded per-site errors.
type Diagnostics struct {
	// Stages holds one entry per pipeline stage, in pipeline order
	// (resolve, dns, ca, cdn, interservice).
	Stages []StageDiag
	// Resolver is the post-run snapshot of the resolver's counters. Its
	// HitRate is the share of lookups a cached resolver (one over a network
	// transport) absorbed; a resolver over an in-process store has no cache
	// (Cached false), so its hit rate is 0.
	Resolver resolver.Stats
	// Errors lists the recorded per-site failures (at most
	// maxRecordedErrors), sorted by site then stage. Empty under
	// conc.FailFast — a failing run aborts instead.
	Errors []SiteError
	// ErrorsTruncated is how many recorded errors were dropped by the cap.
	ErrorsTruncated int
}

// StageDiag is one stage's progress counters.
type StageDiag struct {
	Stage string
	// Sites is how many per-site (or, for interservice, per-provider)
	// classifications the stage ran, successful or not.
	Sites int
	// Errors is how many of them failed.
	Errors int
}

// TotalErrors sums the per-stage error counters.
func (d Diagnostics) TotalErrors() int {
	n := 0
	for _, s := range d.Stages {
		n += s.Errors
	}
	return n
}

// SiteError is one recorded per-site (or per-provider) failure.
type SiteError struct {
	Site  string // website, or provider identity for the interservice stage
	Stage string
	Err   string
}

// diagCollector accumulates stage counters and errors from concurrent
// workers, mirroring every observation into the shared telemetry registry
// (measure_<stage>_sites_total / measure_<stage>_errors_total).
type diagCollector struct {
	mu     sync.Mutex
	stages map[string]*stageEntry
	errs   []SiteError
	capped int
}

// stageEntry pairs the per-run counters with their process-wide telemetry
// twins, resolved once per stage name.
type stageEntry struct {
	diag         StageDiag
	sitesMetric  *telemetry.CounterMetric
	errorsMetric *telemetry.CounterMetric
}

func newDiagCollector() *diagCollector {
	return &diagCollector{stages: make(map[string]*stageEntry)}
}

// observe counts one classification attempt of stage, failed when err != nil.
func (d *diagCollector) observe(stage string, err error) {
	d.mu.Lock()
	se, ok := d.stages[stage]
	if !ok {
		se = &stageEntry{
			diag:         StageDiag{Stage: stage},
			sitesMetric:  telemetry.Counter("measure_"+stage+"_sites_total", "sites dispatched through the "+stage+" stage"),
			errorsMetric: telemetry.Counter("measure_"+stage+"_errors_total", "failed classifications in the "+stage+" stage"),
		}
		d.stages[stage] = se
	}
	se.diag.Sites++
	se.sitesMetric.Inc()
	if err != nil {
		se.diag.Errors++
		se.errorsMetric.Inc()
	}
	d.mu.Unlock()
}

// record keeps one per-site error, up to the cap.
func (d *diagCollector) record(site, stage string, err error) {
	d.mu.Lock()
	if len(d.errs) < maxRecordedErrors {
		d.errs = append(d.errs, SiteError{Site: site, Stage: stage, Err: err.Error()})
	} else {
		d.capped++
	}
	d.mu.Unlock()
}

// snapshot freezes the collector into a Diagnostics value. Stage entries
// follow order (stages that never ran are included with zero counters) and
// errors are sorted so concurrent collection never shows through.
func (d *diagCollector) snapshot(order []string, rs resolver.Stats) Diagnostics {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := Diagnostics{Resolver: rs, ErrorsTruncated: d.capped}
	for _, name := range order {
		if se, ok := d.stages[name]; ok {
			out.Stages = append(out.Stages, se.diag)
		} else {
			out.Stages = append(out.Stages, StageDiag{Stage: name})
		}
	}
	out.Errors = append(out.Errors, d.errs...)
	sort.Slice(out.Errors, func(i, j int) bool {
		a, b := out.Errors[i], out.Errors[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Stage < b.Stage
	})
	return out
}
