// Command bench is the repository benchmark. It builds cmd/depscope and
// cmd/depserver from the tree it sits in, runs a workload against them and
// against the packages in-process, checks every output, and prints each
// metric as "workload metric value unit" followed, as the last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through bench/run.sh, which builds this
// package first:
//
//	bash bench/run.sh -workload paper-10k -seed 2020 -seconds 10 -trace 0
//	bash bench/run.sh -reps 5 -out a.json      # every workload, seeds 2020..2024
//	bash bench/run.sh -compare a.json b.json   # medians, quartiles, verdicts
//	bash bench/run.sh -smoke                   # every workload at scale 2000
//
// Untraced runs report the end-to-end metrics; -trace 1 reports the
// per-layer metrics instead and writes .bench_build/out/trace-<workload>.json.
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	scale int
	run   func(ctx context.Context, s *session) error
}

var workloads = []*workload{
	{"paper-10k", 10000, runPaper},
	{"stream-chains-10k", 10000, runStream},
	{"risk-20k", 20000, runRisk},
	{"serve-10k", 10000, runServe},
}

// smokeScale replaces every workload's scale under -smoke.
const smokeScale = 2000

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names a metric of the final JSON line and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload in untraced runs; what "op"
// means per workload is in README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every workload in traced runs: each workload
// runs the reference pipeline, so each observes every one of these layers.
var layerMetrics = []metricDef{
	{"ecosystem.generate_s", "s"},
	{"ecosystem.materialize_s", "s"},
	{"measure.run_s", "s"},
	{"measure.resolve_s", "s"},
	{"measure.classify_s", "s"},
	{"measure.finish_s", "s"},
	{"resolver.queries", "count"},
	{"resolver.cache_hit_ratio", "ratio"},
	{"analysis.build_graph_s", "s"},
	{"core.graph_live_mb", "MB"},
	{"core.metrics_fill_s", "s"},
	{"incident.simulate_s", "s"},
	{"op.cpu_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// config is what every workload run shares.
type config struct {
	root    string // repository root
	bin     string // directory holding the built depscope and depserver
	out     string // directory for trace files
	seed    int64
	seconds float64
	trace   int // 0 or 1
	smoke   bool
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// session is one run of one workload.
type session struct {
	config
	w      *workload
	scale  int
	tr     *tracer
	stdout io.Writer

	attempted, failed int
	metrics           map[string]metricVal
	// tracedReps counts the traced reference repetitions; layerSums sums
	// their per-layer numbers.
	tracedReps int
	layerSums  map[string]float64
}

// dur is the measured phase's length.
func (s *session) dur() time.Duration { return time.Duration(s.seconds * float64(time.Second)) }

// maxReported bounds the failure messages printed per run.
const maxReported = 10

// check counts one attempted operation or output check, and a failure
// unless ok. It returns ok.
func (s *session) check(ok bool, format string, args ...any) bool {
	failed := 0
	if !ok {
		failed = 1
	}
	s.count(1, failed, format, args...)
	return ok
}

// count records n attempted operations of which failed failed.
func (s *session) count(n, failed int, format string, args ...any) {
	s.attempted += n
	if failed == 0 {
		return
	}
	if s.failed < maxReported {
		fmt.Fprintf(os.Stderr, "%s: FAILED (%d): %s\n", s.w.name, failed, fmt.Sprintf(format, args...))
	}
	s.failed += failed
}

// record stores a metric and prints it; n > 0 is the sample count behind it.
func (s *session) record(name string, v float64, unit string, n int) {
	s.metrics[name] = metricVal{v, unit}
	line := fmt.Sprintf("%s %s %s %s", s.w.name, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	if n > 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	fmt.Fprintln(s.stdout, line)
}

// reps runs a set-up body n times and returns each repetition's duration
// in seconds. In a traced run it runs three untraced and three traced
// repetitions, alternating, each traced one under a root span of its own;
// it returns the untraced durations and records trace.overhead_frac from
// the two medians.
func (s *session) reps(n int, body func(sp span) error) ([]float64, error) {
	if s.tr != nil {
		n = 6
	}
	var plain, traced []float64
	for i := 0; i < n; i++ {
		var sp span
		if s.tr != nil && i%2 == 1 {
			sp = s.tr.root(fmt.Sprintf("%s/seed%d/rep%d", s.w.name, s.seed, i), s.w.name)
		}
		runtime.GC() // start each repetition without the last one's garbage
		start := time.Now()
		err := body(sp)
		sp.end()
		if err != nil {
			return nil, err
		}
		if sp.t != nil {
			traced = append(traced, time.Since(start).Seconds())
		} else {
			plain = append(plain, time.Since(start).Seconds())
		}
	}
	if s.tr != nil {
		s.tracedReps += len(traced)
		s.record("trace.overhead_frac", median(traced)/median(plain)-1, "frac", len(traced))
	}
	return plain, nil
}

// addLayers accumulates one traced repetition's per-layer numbers.
func (s *session) addLayers(m map[string]float64) {
	for k, v := range m {
		s.layerSums[k] += v
	}
}

func runWorkload(ctx context.Context, cfg config, w *workload, stdout io.Writer) *result {
	s := &session{
		config: cfg, w: w, scale: w.scale, stdout: stdout,
		metrics: make(map[string]metricVal), layerSums: make(map[string]float64),
	}
	if cfg.smoke {
		s.scale = smokeScale
	}
	if cfg.trace == 1 {
		s.tr = newTracer()
	}
	if err := w.run(ctx, s); err != nil {
		s.check(false, "%v", err)
	}
	want := e2eMetrics
	if s.tr != nil {
		want = layerMetrics
		s.finishTrace()
	}
	res := &result{Metrics: make(map[string]metricVal)}
	for _, m := range want {
		v, ok := s.metrics[m.name]
		if s.check(ok, "metric %s was not measured", m.name) {
			res.Metrics[m.name] = v
		}
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	return res
}

// finishTrace turns the recorded spans into per-layer metrics (means over
// the traced repetitions) and writes the trace file.
func (s *session) finishTrace() {
	spans := s.tr.finish()
	totals := layerTotals(spans)
	reps := float64(max(s.tracedReps, 1))
	for metric, names := range spanLayers {
		sum := 0.0
		for _, n := range names {
			sum += totals[n]
		}
		s.layerSums[metric] += sum / 1000
	}
	names := make([]string, 0, len(s.layerSums))
	for k := range s.layerSums {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s.record(k, s.layerSums[k]/reps, layerUnit(k), s.tracedReps)
	}
	// Layers only some workloads have (the report's render steps, the
	// streamed path's inflate) get a printed line but no JSON entry.
	for _, e := range []struct{ metric, span string }{
		{"analysis.render_s", "analysis.render"},
		{"analysis.render.dyn_replay_s", "analysis.dyn_replay"},
		{"analysis.render.mitigation_s", "analysis.mitigation"},
		{"core.inflate_s", "core.inflate"},
	} {
		if v, ok := totals[e.span]; ok {
			s.record(e.metric, v/1000/reps, "s", s.tracedReps)
		}
	}
	err := os.MkdirAll(s.out, 0o755)
	if err == nil {
		err = writeTrace(filepath.Join(s.out, "trace-"+s.w.name+".json"), s.w.name, s.seed, spans)
	}
	s.check(err == nil, "write trace: %v", err)
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "s"
}

// buildBinaries builds depscope and depserver from the tree at root.
func buildBinaries(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/depscope", "./cmd/depserver")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build cmd/depscope and cmd/depserver: %w", err)
	}
	return nil
}

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 2020, "workload seed (1 is the holdout)")
		seconds = flag.Float64("seconds", 10, "length of each run's measured phase")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics and write a trace instead of end-to-end metrics")
		reps    = flag.Int("reps", 1, "with -workload all: runs per workload, seeds seed, seed+1, ...")
		out     = flag.String("out", "", "write a results file (for -compare) here")
		smoke   = flag.Bool("smoke", false, "run at scale 2000 with a 2 s measured phase, to check the harness")
		cmp     = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	root, err := filepath.Abs(".")
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results files"))
		}
		regressed, err := compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	secondsSet := false
	flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *smoke && !secondsSet {
		*seconds = 2
	}
	cfg := config{
		root: root, bin: filepath.Join(root, ".bench_build", "bin"), out: filepath.Join(root, ".bench_build", "out"),
		seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke,
	}
	if *seconds <= 0 || *reps < 1 {
		fatal(errors.New("-seconds and -reps must be positive"))
	}
	var res *result
	var runs []runRecord
	if *wlName == "all" {
		res, runs, err = runSet(cfg, *reps)
		if err != nil {
			fatal(err)
		}
	} else {
		w := findWorkload(*wlName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *wlName, strings.Join(workloadNames(), ", ")))
		}
		if err := buildBinaries(root, cfg.bin); err != nil {
			fatal(err)
		}
		res = runWorkload(context.Background(), cfg, w, os.Stdout)
		runs = []runRecord{{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: *res}}
	}
	if *out != "" {
		if err := writeResults(*out, newEnv(cfg, *reps), runs); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSet runs every workload reps times, each run in a child process of
// its own so one run's heap cannot inflate another's memory numbers, and
// returns the aggregate result line and every run's record.
func runSet(cfg config, reps int) (*result, []runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	agg := &result{Correct: true, Metrics: make(map[string]metricVal)}
	var runs []runRecord
	values := make(map[string][]float64)
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			seed := cfg.seed + int64(rep)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(cfg.trace)}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			r, err := runChild(self, cfg.root, args)
			if err != nil {
				return nil, nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			runs = append(runs, runRecord{Workload: w.name, Seed: seed, Trace: cfg.trace, result: *r})
			agg.Correct = agg.Correct && r.Correct
			agg.Attempted += r.Attempted
			agg.Failed += r.Failed
			for k, v := range r.Metrics {
				key := w.name + "/" + k
				values[key] = append(values[key], v.Value)
				agg.Metrics[key] = metricVal{median(values[key]), v.Unit}
			}
		}
	}
	return agg, runs, nil
}

// runChild runs the harness on one workload, echoing its output, and
// parses its last line.
func runChild(self, root string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
