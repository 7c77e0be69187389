package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/casestudy"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
	"depscope/internal/telemetry"
)

// minOps is the fewest timed operations a run makes, however short
// -seconds is, so every median has something to stand on.
const minOps = 3

// runPaper is depscope's default full report: both snapshots, measured
// concurrently, pointer graphs, rendered in full.
func runPaper(ctx context.Context, s *session) error {
	return runReport(ctx, s, pipelineOpts{Scale: s.scale, Seed: s.seed, Preset: "dyn-replay"})
}

// runStream is the same report through the streamed, columnar path with
// resource-inclusion chains, under a memory budget.
func runStream(ctx context.Context, s *session) error {
	return runReport(ctx, s, pipelineOpts{Scale: s.scale, Seed: s.seed, Preset: "dyn-replay",
		Chains: true, MemBudget: 2 << 30}, "-compact", "-chains", "-mem-budget", "2GiB")
}

// setupReps is how many times a workload sets up per run; setup_s is the
// median.
const setupReps = 3

// runReport runs depscope for the measured phase, then sets up by
// computing the report in-process, and checks every depscope report
// against the in-process one. The subprocesses run first because Linux
// charges a child started with vfork (as Go starts every child) with its
// parent's peak RSS: while the harness is small, a child's peak is its own.
func runReport(ctx context.Context, s *session, o pipelineOpts, flags ...string) error {
	args := append([]string{"-scale", strconv.Itoa(s.scale), "-seed", strconv.FormatInt(s.seed, 10), "-q"}, flags...)
	var wall, cpu, rss []float64
	sums := make(map[string]int)
	start := time.Now()
	for len(wall) < minOps || time.Since(start) < s.dur() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p, err := runProcess(ctx, filepath.Join(s.bin, "depscope"), args...)
		if !s.check(err == nil, "depscope %v: %v", args, err) {
			continue
		}
		sums[p.sum]++
		wall = append(wall, p.wallMs)
		cpu = append(cpu, p.cpuMs)
		rss = append(rss, p.rssMB)
	}
	s.record("op_p50_ms", median(wall), "ms", len(wall))
	s.record("peak_rss_mb", median(rss), "MB", len(rss))
	s.record("op.cpu_ms", median(cpu), "ms", len(cpu))

	var want string
	var queries, hits int64
	setup, err := s.reps(setupReps, func(sp span) error {
		ref, err := runReference(ctx, o, sp)
		if err != nil {
			return err
		}
		queries, hits = checkSnapshots(s, ref.Run, 2)
		s.addLayers(ref.Layers)
		r := sp.child("analysis.render")
		if r.t != nil {
			telemetry.Default.EnableTrace(4096)
			defer telemetry.Default.EnableTrace(0)
		}
		sum, err := reportSum(ctx, ref.Run, s.scale, s.seed)
		r.end()
		r.adopt(telemetry.Default.TraceEvents())
		if err != nil {
			return err
		}
		if want == "" {
			want = sum
		}
		s.check(sum == want, "in-process reports disagree: %s vs %s", sum, want)
		return nil
	})
	if err != nil {
		return err
	}
	s.record("setup_s", median(setup), "s", len(setup))
	s.recordResolver(queries, hits)
	for sum, n := range sums {
		failed := 0
		if sum != want {
			failed = n
		}
		s.count(n, failed, "%d depscope reports hash to %s, the in-process report to %s", n, sum, want)
	}
	return nil
}

// reportSum renders what depscope prints for a full run, into a hash.
func reportSum(ctx context.Context, run *analysis.Run, scale int, seed int64) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "depscope: third-party dependency analysis (scale %d, seed %d)\n", scale, seed)
	analysis.Report(h, run)
	if err := analysis.RenderValidation(h, run); err != nil {
		return "", err
	}
	hosp, err := casestudy.Hospitals(ctx, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(h, "\n%s\n", hosp.Render())
	home, err := casestudy.SmartHome(ctx, nil)
	if err != nil {
		return "", err
	}
	io.WriteString(h, home.Render())
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (s *session) recordResolver(queries, hits int64) {
	s.record("resolver.queries", float64(queries), "count", 0)
	ratio := 0.0
	if queries > 0 {
		ratio = float64(hits) / float64(queries)
	}
	s.record("resolver.cache_hit_ratio", ratio, "ratio", 0)
}

// process is one finished subprocess run.
type process struct {
	sum                  string // sha256 of its standard output
	wallMs, cpuMs, rssMB float64
}

// runProcess runs a program to completion, hashing its standard output.
func runProcess(ctx context.Context, path string, args ...string) (*process, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	h := sha256.New()
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = h, &stderr
	parentPeak := selfUsage().Maxrss
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, tailOf(stderr.String()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	rss, err := childPeakMB(ru, parentPeak)
	if err != nil {
		return nil, err
	}
	return &process{
		sum:    hex.EncodeToString(h.Sum(nil)),
		wallMs: float64(wall) / float64(time.Millisecond),
		cpuMs:  cpuMs(ru),
		rssMB:  rss,
	}, nil
}

// childPeakMB is a finished child's peak RSS. Linux reports at least the
// parent's own peak at the time of the vfork that started the child, so a
// reading no higher than that measures the harness, not the child.
func childPeakMB(ru *syscall.Rusage, parentPeakKiB int64) (float64, error) {
	if ru.Maxrss <= parentPeakKiB {
		return 0, fmt.Errorf("child peak RSS %d KiB is not above the harness's own %d KiB: unmeasurable", ru.Maxrss, parentPeakKiB)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func cpuMs(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func selfUsage() *syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return &ru
}

func tailOf(s string) string {
	const n = 400
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// riskPresets are the Monte-Carlo sweeps of every risk round.
var riskPresets = []string{"mc-baseline", "mc-entity-storm", "mc-dns-deep"}

// riskOutages is how many single-provider outages a round sweeps.
const riskOutages = 100

// riskMitigationK is the option budget of the round's mitigation plan.
const riskMitigationK = 25

// runRisk sets up the 2020 graph in-process (with its metrics engine
// filled) three times, then repeats rounds of risk questions over it for
// the measured phase: three Monte-Carlo sweeps, a sweep of the largest
// single-provider outages and a mitigation plan.
func runRisk(ctx context.Context, s *session) error {
	o := pipelineOpts{Scale: s.scale, Seed: s.seed, Preset: "top3-dns",
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020}}
	var ref *reference
	setup, err := s.reps(setupReps, func(sp span) error {
		r, err := runReference(ctx, o, sp)
		if err != nil {
			return err
		}
		s.addLayers(r.Layers)
		ref = r
		return nil
	})
	if err != nil {
		return err
	}
	s.record("setup_s", median(setup), "s", len(setup))
	s.recordResolver(checkSnapshots(s, ref.Run, 1))
	run, g := ref.Run, ref.Run.Y2020.Graph

	var specs []*incident.SweepSpec
	for _, name := range riskPresets {
		sp, ok := incident.SweepPreset(name)
		if !ok {
			return fmt.Errorf("unknown sweep preset %q", name)
		}
		sp.Seed = s.seed
		specs = append(specs, sp)
	}
	outages := largestOutages(g, riskOutages)
	first := make(map[string][]byte)
	same := func(key string, v any) {
		b, err := json.Marshal(v)
		if !s.check(err == nil, "encode %s: %v", key, err) {
			return
		}
		if prev, ok := first[key]; ok {
			s.check(bytes.Equal(prev, b), "%s differs between two runs over the same inputs", key)
		} else {
			first[key] = b
		}
	}

	var rounds, cpu, sweeps, mitigations []float64
	var mcTime time.Duration
	scenarios := 0
	start := time.Now()
	for len(rounds) < minOps || time.Since(start) < s.dur() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t0, cpu0 := time.Now(), cpuMs(selfUsage())
		mc := make([]*incident.SweepReport, len(specs))
		for i, sp := range specs {
			mc[i], err = incident.MonteCarlo(ctx, g, sp, 0)
			if s.check(err == nil, "monte carlo %s: %v", sp.Name, err) {
				scenarios += mc[i].Scenarios
			}
		}
		t1 := time.Now()
		mcTime += t1.Sub(t0)
		reps, err := incident.Sweep(ctx, g, outages, 0)
		if s.check(err == nil && len(reps) == len(outages), "outage sweep: %d reports, %v", len(reps), err) {
			bad := 0
			for _, r := range reps {
				if r.Validation == nil || !r.Validation.Match {
					bad++
				}
			}
			s.count(len(reps), bad, "%d single-provider outages disagree with the provider's impact set", bad)
		}
		t2 := time.Now()
		plan, err := analysis.Mitigation(run, riskMitigationK, "")
		t3, cpu3 := time.Now(), cpuMs(selfUsage())
		if s.check(err == nil, "mitigation: %v", err) {
			s.check(plan.After <= plan.Before && len(plan.Options) <= riskMitigationK,
				"mitigation plan %d -> %d with %d options", plan.Before, plan.After, len(plan.Options))
			same("mitigation plan", plan)
		}
		for i, rep := range mc {
			if rep != nil {
				same("monte carlo "+specs[i].Name, rep)
			}
		}
		sweeps = append(sweeps, t2.Sub(t1).Seconds())
		mitigations = append(mitigations, t3.Sub(t2).Seconds())
		rounds = append(rounds, float64(t3.Sub(t0))/float64(time.Millisecond))
		cpu = append(cpu, cpu3-cpu0)
	}
	s.record("op_p50_ms", median(rounds), "ms", len(rounds))
	s.record("peak_rss_mb", float64(selfUsage().Maxrss)/1024, "MB", 0)
	s.record("op.cpu_ms", median(cpu), "ms", len(cpu))
	s.record("mc_scenarios_per_s", float64(scenarios)/mcTime.Seconds(), "1/s", scenarios)
	s.record("outage_sweep_s", median(sweeps), "s", len(sweeps))
	s.record("mitigation_s", median(mitigations), "s", len(mitigations))
	return nil
}

// largestOutages builds one single-provider outage scenario for each of
// the n providers (any service) with the highest concentration.
func largestOutages(g *core.Graph, n int) []*incident.Scenario {
	var all []core.ProviderStat
	for _, svc := range core.Services {
		all = append(all, g.TopProviders(svc, core.AllIndirect(), false, 0)...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Concentration != all[j].Concentration {
			return all[i].Concentration > all[j].Concentration
		}
		return all[i].Name < all[j].Name
	})
	var out []*incident.Scenario
	seen := make(map[string]bool)
	for _, p := range all {
		if len(out) == n {
			break
		}
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		out = append(out, &incident.Scenario{
			Name:    "outage " + p.Name,
			Targets: incident.Targets{Providers: []string{p.Name}},
		})
	}
	return out
}
