package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload the way -smoke does (scale 2000, a 2 s
// measured phase) against binaries built from this tree, so the harness
// cannot rot unnoticed. Each workload runs in a child process of its own,
// as in a real set, because a child's peak RSS is only measurable while
// the process that starts it is smaller. Skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := buildBinaries(root, filepath.Join(dir, "bin")); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		trace := 0
		if w.name == "stream-chains-10k" || w.name == "serve-10k" {
			trace = 1 // both replays of the pipeline, streamed and default
		}
		t.Run(w.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestSmokeWorkload$")
			cmd.Env = append(os.Environ(), "BENCH_SMOKE="+strings.Join([]string{w.name, dir, strconv.Itoa(trace)}, ","))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			i := bytes.LastIndex(out, []byte(resultPrefix))
			if i < 0 {
				t.Fatalf("no result line in:\n%s", out)
			}
			line, _, _ := bytes.Cut(out[i+len(resultPrefix):], []byte("\n"))
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%v in:\n%s", err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v\n%s", res, out)
			}
			want := e2eMetrics
			if trace == 1 {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("metric %s: %+v, present %v; want unit %s", m.name, v, ok, m.unit)
				}
			}
		})
	}
	for _, name := range []string{"stream-chains-10k", "serve-10k"} {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("traced run wrote no trace: %v", err)
		}
	}
}

const resultPrefix = "smoke result: "

// TestSmokeWorkload is TestSmoke's child: it runs the one workload that
// BENCH_SMOKE (name,dir,trace) names and prints the result line.
func TestSmokeWorkload(t *testing.T) {
	arg := os.Getenv("BENCH_SMOKE")
	if arg == "" {
		t.Skip("run by TestSmoke")
	}
	parts := strings.Split(arg, ",")
	trace, _ := strconv.Atoi(parts[2])
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, bin: filepath.Join(parts[1], "bin"), out: parts[1],
		seed: 2020, seconds: 2, trace: trace, smoke: true}
	res := runWorkload(context.Background(), cfg, findWorkload(parts[0]), io.Discard)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s%s\n", resultPrefix, b)
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's metric lists and
// the ones the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the harness %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), harness %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, e2eMetrics)
	same("per_layer", f.PerLayer, layerMetrics)
	names := workloadNames()
	if len(f.Workload) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(f.Workload), len(names))
	}
	for i, w := range f.Workload {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, names[i])
		}
	}
}
