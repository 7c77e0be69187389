// Command depscope runs the full reproduction: it generates the synthetic
// Internet for both snapshots (2016, 2020), executes the measurement
// pipeline of the paper's §3 against it, and prints every table and figure
// of the evaluation.
//
// Usage:
//
//	depscope [-scale N] [-seed S] [-workers W] [-experiment name] [-incident scenario]
//	         [-sweep spec] [-mitigate K] [-checkpoint file [-resume]] [-timeline stream.json]
//
// With -experiment, only the named table/figure is printed (e.g. "table3",
// "figure5", "figure7"). With -incident, a what-if outage scenario (a JSON
// file or a preset such as "dyn-replay") is simulated and its impact report
// printed instead. With -sweep, a Monte-Carlo sweep spec (a JSON file or a
// preset such as "mc-baseline") samples thousands of randomized failure
// scenarios and prints the damage distribution; with -mitigate K, the greedy
// optimizer prints the K sites that should add a second provider to shrink
// aggregate impact the most (see docs/risk.md). With -checkpoint,
// measurement progress is saved as the run advances (one file per snapshot)
// and -resume picks a prior run back up from those files instead of
// restarting. With -timeline, a delta stream is replayed against the
// measured run and its evolution table printed (see docs/incremental.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/casestudy"
	"depscope/internal/chain"
	"depscope/internal/conc"
	"depscope/internal/incident"
	"depscope/internal/membudget"
	"depscope/internal/telemetry"
)

// parseFile decodes the file at path with parse, naming the path in a
// decode error.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// loadSpec resolves an -incident or -sweep argument: a path to a JSON file
// (decoded with parse), or the name of a built-in preset. kind names the
// argument in the error when it is neither.
func loadSpec[T any](arg, kind string, parse func(io.Reader) (*T, error), preset func(string) (*T, bool), names func() []string) (*T, error) {
	if _, err := os.Stat(arg); err == nil {
		return parseFile(arg, parse)
	}
	if spec, ok := preset(arg); ok {
		return spec, nil
	}
	return nil, fmt.Errorf("unknown %s %q: not a file, and not a preset (%s)",
		kind, arg, strings.Join(names(), ", "))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("depscope: ")
	var (
		scale      = flag.Int("scale", 100000, "ranked-list length (the paper uses 100000)")
		seed       = flag.Int64("seed", 2020, "generator seed")
		workers    = flag.Int("workers", 0, "measurement and metrics concurrency (values < 1 mean GOMAXPROCS)")
		experiment = flag.String("experiment", "", "print only one experiment (table1..table11, figure2..figure9, hidden, criticaldeps, robustness, chains)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		outage     = flag.String("outage", "", "what-if analysis: provider identity to fail (e.g. dnsmadeeasy.com, Akamai)")
		dotFile    = flag.String("dot", "", "write the 2020 dependency graph in Graphviz format to this file")
		asJSON     = flag.Bool("json", false, "emit the experiment summary as JSON instead of text")
		csvFigure  = flag.String("csv", "", "emit one figure's data series as CSV (figure2..figure4, figure6-dns/cdn/ca, figure7..figure9)")
		incidentIn = flag.String("incident", "", "what-if incident simulation: a scenario JSON file or a preset name (see docs/incidents.md)")
		policyStr  = flag.String("error-policy", "failfast", "per-site error policy: failfast aborts on the first measurement error, collect marks the site uncharacterized and reports errors in the summary footer")
		showTelem  = flag.Bool("telemetry", false, "print the end-of-run telemetry metrics table to stderr")
		ckptPath   = flag.String("checkpoint", "", "checkpoint measurement progress to this path (one file per snapshot: <path>.2016, <path>.2020)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint files of an earlier run (they must exist); only sites whose content changed are re-measured")
		timelineIn = flag.String("timeline", "", "replay a delta-stream JSON file against the measured run and print the evolution table (see docs/incremental.md)")
		sweepIn    = flag.String("sweep", "", "Monte-Carlo incident sweep: a sweep-spec JSON file or a preset name (see docs/risk.md)")
		mitigateK  = flag.Int("mitigate", 0, "print a greedy mitigation plan: the K sites that should add a second provider to shrink aggregate impact the most (see docs/risk.md)")
		chainsOn   = flag.Bool("chains", false, "measure transitive resource-inclusion chains: implicitly-trusted script/font vendors become a fourth dependency type (see docs/chains.md)")
		chainsCfg  = flag.String("chain-config", "", "chain configuration JSON file overriding the -chains defaults (implies -chains; see docs/chains.md)")
		memBudget  = flag.String("mem-budget", "", "soft live-heap limit for the run, e.g. 8GiB (checked at batch boundaries, over-budget runs fail fast; the snapshots are then measured one after the other; see docs/scale.md)")
		batchSize  = flag.Int("batch-size", 0, "streaming batch length in sites: sites are materialized and measured in batches with landing pages released as the run advances (values < 1 mean 8192)")
	)
	// -compact is accepted and ignored: every run streams. It remains only so
	// existing invocations keep working.
	flag.Bool("compact", false, "no-op: every run streams (kept for existing invocations; see docs/scale.md)")
	flag.Parse()
	if *showTelem {
		// Written to stderr on every normal exit path so -json/-csv output
		// stays machine-parseable. Error paths exit via log.Fatal and skip it.
		defer func() {
			fmt.Fprintln(os.Stderr, "\ntelemetry (process-wide, end of run):")
			telemetry.Default.Snapshot().WriteTable(os.Stderr)
		}()
	}
	policy, err := conc.ParsePolicy(*policyStr)
	if err != nil {
		log.Fatal(err)
	}
	// Resolve the scenario before the expensive measurement run so a typo in
	// a preset name or scenario file fails in milliseconds, not minutes.
	var scenario *incident.Scenario
	if *incidentIn != "" {
		scenario, err = loadSpec(*incidentIn, "incident scenario", incident.ParseScenario, incident.Preset, incident.PresetNames)
		if err != nil {
			log.Fatal(err)
		}
	}
	var sweep *incident.SweepSpec
	if *sweepIn != "" {
		sweep, err = loadSpec(*sweepIn, "sweep spec", incident.ParseSweep, incident.SweepPreset, incident.SweepPresetNames)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *mitigateK < 0 {
		log.Fatal("-mitigate must be positive")
	}
	var chainCfg *chain.Config
	if *chainsCfg != "" {
		cfg, err := parseFile(*chainsCfg, chain.ParseConfig)
		if err != nil {
			log.Fatal(err)
		}
		chainCfg = &cfg
	} else if *chainsOn {
		cfg := chain.Default()
		chainCfg = &cfg
	}
	// Same fail-fast treatment for the other pre-run inputs: a bad delta
	// stream or a -resume without its checkpoint should not cost a run.
	if *resume && *ckptPath == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	var budget uint64
	if *memBudget != "" {
		budget, err = membudget.Parse(*memBudget)
		if err != nil {
			log.Fatal(err)
		}
	}
	var stream *analysis.DeltaStream
	if *timelineIn != "" {
		if stream, err = parseFile(*timelineIn, analysis.ParseDeltaStream); err != nil {
			log.Fatal(err)
		}
	}

	renderers := map[string]func(*analysis.Run){
		"table1":       func(r *analysis.Run) { analysis.RenderTable1(os.Stdout, r) },
		"table2":       func(r *analysis.Run) { analysis.RenderTable2(os.Stdout, r) },
		"table3":       func(r *analysis.Run) { analysis.RenderTable3(os.Stdout, r) },
		"table4":       func(r *analysis.Run) { analysis.RenderTable4(os.Stdout, r) },
		"table5":       func(r *analysis.Run) { analysis.RenderTable5(os.Stdout, r) },
		"table6":       func(r *analysis.Run) { analysis.RenderTable6(os.Stdout, r) },
		"table7":       func(r *analysis.Run) { analysis.RenderTable7(os.Stdout, r) },
		"table8":       func(r *analysis.Run) { analysis.RenderTable8(os.Stdout, r) },
		"table9":       func(r *analysis.Run) { analysis.RenderTable9(os.Stdout, r) },
		"figure2":      func(r *analysis.Run) { analysis.RenderFigure2(os.Stdout, r) },
		"figure3":      func(r *analysis.Run) { analysis.RenderFigure3(os.Stdout, r) },
		"figure4":      func(r *analysis.Run) { analysis.RenderFigure4(os.Stdout, r) },
		"figure5":      func(r *analysis.Run) { analysis.RenderFigure5(os.Stdout, r) },
		"figure6":      func(r *analysis.Run) { analysis.RenderFigure6(os.Stdout, r) },
		"figure7":      func(r *analysis.Run) { analysis.RenderFigure7(os.Stdout, r) },
		"figure8":      func(r *analysis.Run) { analysis.RenderFigure8(os.Stdout, r) },
		"figure9":      func(r *analysis.Run) { analysis.RenderFigure9(os.Stdout, r) },
		"hidden":       func(r *analysis.Run) { analysis.RenderHiddenDeps(os.Stdout, r) },
		"criticaldeps": func(r *analysis.Run) { analysis.RenderCriticalDeps(os.Stdout, r) },
		"chains":       func(r *analysis.Run) { analysis.RenderChains(os.Stdout, r) },
		"table10":      func(*analysis.Run) { renderHospitals(*seed) },
		"table11":      func(*analysis.Run) { renderSmartHome() },
		"robustness":   func(r *analysis.Run) { analysis.RenderRobustness(os.Stdout, r) },
		"validation": func(r *analysis.Run) {
			if err := analysis.RenderValidation(os.Stdout, r); err != nil {
				log.Fatal(err)
			}
		},
		"ablation": func(r *analysis.Run) {
			if err := analysis.RenderAblation(os.Stdout, r); err != nil {
				log.Fatal(err)
			}
		},
	}
	name := strings.ToLower(*experiment)
	if name != "" {
		if _, ok := renderers[name]; !ok {
			var known []string
			for k := range renderers {
				known = append(known, k)
			}
			sort.Strings(known)
			log.Fatalf("unknown experiment %q; available: %s", name, strings.Join(known, ", "))
		}
	}

	// The case studies do not need the main-universe run.
	if name == "table10" {
		renderHospitals(*seed)
		return
	}
	if name == "table11" {
		renderSmartHome()
		return
	}

	start := time.Now()
	if !*quiet {
		log.Printf("generating and measuring %d sites x 2 snapshots (seed %d)", *scale, *seed)
	}
	progress := func(format string, args ...any) {
		if !*quiet {
			log.Printf(format, args...)
		}
	}
	run, err := analysis.Execute(context.Background(), analysis.Options{
		Scale:          *scale,
		Seed:           *seed,
		Workers:        *workers,
		ErrorPolicy:    policy,
		Progress:       progress,
		CheckpointPath: *ckptPath,
		Resume:         *resume,
		Chains:         chainCfg,
		MemBudget:      budget,
		BatchSize:      *batchSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		log.Printf("measurement complete in %v", time.Since(start).Round(time.Millisecond))
	}
	// Under collect, always account for what was tolerated; under failfast a
	// completed run is error-free by construction, so stay quiet.
	errorFooter := func() {
		if policy == conc.Collect {
			analysis.RenderErrorSummary(os.Stdout, run)
		}
	}

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := analysis.WriteDOT(f, run, 200); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote dependency graph to %s", *dotFile)
	}
	if stream != nil {
		rows, err := analysis.Timeline(run, stream)
		if err != nil {
			log.Fatal(err)
		}
		analysis.RenderTimeline(os.Stdout, rows)
		errorFooter()
		return
	}
	if *outage != "" {
		if err := analysis.RenderOutage(os.Stdout, run, *outage); err != nil {
			log.Fatal(err)
		}
		errorFooter()
		return
	}
	if scenario != nil {
		rep, err := analysis.SimulateIncident(context.Background(), run, scenario)
		if err != nil {
			log.Fatal(err)
		}
		rep.WriteText(os.Stdout)
		errorFooter()
		return
	}
	if sweep != nil {
		rep, err := analysis.MonteCarloSweep(context.Background(), run, sweep, *workers)
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
		} else {
			rep.WriteText(os.Stdout)
		}
		errorFooter()
		return
	}
	if *mitigateK > 0 {
		plan, err := analysis.Mitigation(run, *mitigateK, "")
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(plan); err != nil {
				log.Fatal(err)
			}
		} else {
			analysis.WriteMitigationText(os.Stdout, plan)
		}
		errorFooter()
		return
	}
	if *csvFigure != "" {
		if err := analysis.WriteFigureCSV(os.Stdout, run, *csvFigure); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *asJSON {
		if err := analysis.WriteJSON(os.Stdout, run); err != nil {
			log.Fatal(err)
		}
		return
	}
	if name != "" {
		renderers[name](run)
		errorFooter()
		return
	}
	fmt.Printf("depscope: third-party dependency analysis (scale %d, seed %d)\n", *scale, *seed)
	analysis.Report(os.Stdout, run)
	if err := analysis.RenderValidation(os.Stdout, run); err != nil {
		log.Fatal(err)
	}
	errorFooter()
	fmt.Println()
	renderHospitals(*seed)
	fmt.Println()
	renderSmartHome()
}

func renderHospitals(seed int64) {
	rep, err := casestudy.Hospitals(context.Background(), seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
}

func renderSmartHome() {
	rep, err := casestudy.SmartHome(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
}
