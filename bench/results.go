package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runRecord is one run of one workload in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// env is what must match for two results files to be comparable; Commit
// is recorded but expected to differ.
type env struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

type resultsFile struct {
	Env  env         `json:"env"`
	Runs []runRecord `json:"runs"`
}

func newEnv(cfg config, reps int) env {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return env{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Reps: reps,
		Seconds: cfg.seconds, Smoke: cfg.smoke,
	}
}

func writeResults(path string, e env, runs []runRecord) error {
	b, err := json.MarshalIndent(resultsFile{e, runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// e2eBound is one end_to_end entry of BENCHMARK.json.
type e2eBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []e2eBound `json:"end_to_end"`
}

func readBenchmark(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares the values of one metric in a base set and a new set.
// It is unresolved when either set's interquartile spread is wider than
// the bound, regressed when the new median is worse than the base median
// by more than the bound, and ok otherwise.
func verdict(base, next []float64, b e2eBound) (string, float64) {
	mb, mn := median(base), median(next)
	change := (mn - mb) / math.Abs(mb)
	if b.Better == "higher" {
		change = -change
	}
	switch {
	case spread(base) > b.Bound || spread(next) > b.Bound:
		return verdictUnresolved, change
	case change > b.Bound:
		return verdictRegressed, change
	}
	return verdictOK, change
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles and a verdict under BENCHMARK.json's bounds. It
// reports whether anything regressed.
func compareFiles(root, basePath, nextPath string, w io.Writer) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	next, err := readResults(nextPath)
	if err != nil {
		return false, err
	}
	be, ne := base.Env, next.Env
	be.Commit, ne.Commit = "", ""
	if be != ne {
		return false, fmt.Errorf("environments differ, refusing to compare:\n  %s: %+v\n  %s: %+v",
			basePath, base.Env, nextPath, next.Env)
	}
	bench, err := readBenchmark(root)
	if err != nil {
		return false, err
	}
	values := func(f *resultsFile, wl, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == 0 {
				out = append(out, v.Value)
			}
		}
		return out
	}
	regressed, compared := false, 0
	fmt.Fprintf(w, "%-18s %-12s %-30s %-30s %8s  %s\n", "workload", "metric",
		"base median [q1 q3]", "new median [q1 q3]", "worse by", "verdict")
	for _, wl := range workloadNames() {
		for _, b := range bench.EndToEnd {
			bv, nv := values(base, wl, b.Name), values(next, wl, b.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v, change := verdict(bv, nv, b)
			regressed = regressed || v == verdictRegressed
			compared++
			fmt.Fprintf(w, "%-18s %-12s %-30s %-30s %+7.1f%%  %s (bound %g%%, n=%d/%d)\n",
				wl, b.Name, quartileText(bv), quartileText(nv), 100*change, v, 100*b.Bound, len(bv), len(nv))
		}
	}
	if compared == 0 {
		return false, errors.New("the two files share no untraced workload runs")
	}
	return regressed, nil
}

func quartileText(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", m, q1, q3)
}
