package measure

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"depscope/internal/conc"
	"depscope/internal/resolver"
	"depscope/internal/telemetry"
)

// stage is one step of the pipeline, as Diagnostics and telemetry name it.
// The order of the constants is the pipeline order.
type stage uint8

const (
	stageResolve stage = iota
	stageDNS
	stageCA
	stageCDN
	stageChain // only on chain-enabled runs
	stageInterService
	numStages
)

var stageNames = [numStages]string{"resolve", "dns", "ca", "cdn", "chain", "interservice"}

func (st stage) String() string { return stageNames[st] }

// stageTelemetry holds every stage's process-wide series
// (measure_<stage>_sites_total, measure_<stage>_errors_total,
// measure_<stage>_seconds), registered at package init so /metrics lists
// the whole catalog before the first run and the hot path does no lookup.
var stageTelemetry = func() (t [numStages]struct {
	sites, errors *telemetry.CounterMetric
	seconds       *telemetry.HistogramMetric
}) {
	for st, name := range stageNames {
		t[st].sites = telemetry.Counter("measure_"+name+"_sites_total", "sites (or providers) dispatched through the "+name+" stage")
		t[st].errors = telemetry.Counter("measure_"+name+"_errors_total", "failed classifications in the "+name+" stage")
		t[st].seconds = telemetry.Histogram("measure_"+name+"_seconds", "per-site (or per-provider) latency of the "+name+" stage", nil)
	}
	return t
}()

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
	// (resolve, dns, ca, cdn, [chain,] interservice).
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

// diagCollector accumulates one run's stage counters and error samples from
// concurrent workers. The counters are atomic; only recording an error
// sample takes the mutex.
type diagCollector struct {
	sites, errors [numStages]atomic.Int64

	mu     sync.Mutex
	errs   []SiteError
	capped int
}

// observe settles one classification of subject by stage st, begun at
// start: it counts the attempt in the run's diagnostics and in telemetry,
// and applies the error policy to a failure. Under conc.Collect the failure
// is recorded and observe returns nil, so the caller keeps going with the
// subject uncharacterized; under conc.FailFast it returns err for the
// caller to wrap and abort with.
func (m *measurer) observe(st stage, start time.Time, subject string, err error) error {
	tm := &stageTelemetry[st]
	tm.seconds.ObserveDuration(time.Since(start))
	tm.sites.Inc()
	m.diag.sites[st].Add(1)
	if err == nil {
		return nil
	}
	tm.errors.Inc()
	m.diag.errors[st].Add(1)
	if m.cfg.ErrorPolicy != conc.Collect {
		return err
	}
	d := m.diag
	d.mu.Lock()
	if len(d.errs) < maxRecordedErrors {
		d.errs = append(d.errs, SiteError{Site: subject, Stage: st.String(), Err: err.Error()})
	} else {
		d.capped++
	}
	d.mu.Unlock()
	return nil
}

// snapshot freezes the collector into a Diagnostics value. Every stage of
// the run is listed in pipeline order, the chain stage only when chains is
// set, and errors are sorted so concurrent collection never shows through.
func (d *diagCollector) snapshot(chains bool, rs resolver.Stats) Diagnostics {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := Diagnostics{Resolver: rs, ErrorsTruncated: d.capped}
	for st := range numStages {
		if st == stageChain && !chains {
			continue
		}
		out.Stages = append(out.Stages, StageDiag{Stage: st.String(), Sites: int(d.sites[st].Load()), Errors: int(d.errors[st].Load())})
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
