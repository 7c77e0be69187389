package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadScenario(t *testing.T) {
	// Presets resolve by name.
	sc, err := loadScenario("dyn-replay")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Snapshot != "2016" {
		t.Errorf("dyn-replay snapshot = %q, want 2016", sc.Snapshot)
	}

	// A scenario file on disk wins over preset lookup.
	dir := t.TempDir()
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(`{"name":"f","targets":{"providers":["x.com"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err = loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "f" {
		t.Errorf("file scenario name = %q, want f", sc.Name)
	}

	// A broken file reports its path, not a preset complaint.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"b","bogus_field":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("bad file error = %v, want mention of %s", err, bad)
	}

	// Neither file nor preset: the error lists what IS available.
	if _, err := loadScenario("no-such-thing"); err == nil || !strings.Contains(err.Error(), "dyn-replay") {
		t.Errorf("unknown scenario error = %v, want preset listing", err)
	}
}

// rerun executes this test binary as the depscope process (via the helper
// test below) with the given depscope arguments, returning combined output
// and whether it exited non-zero.
func rerun(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(), "DEPSCOPE_HELPER_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("rerun: %v\n%s", err, out)
		}
		return string(out), true
	}
	return string(out), false
}

// TestHelperProcess is not a real test: rerun launches it to drive main()
// in a subprocess so log.Fatal exit codes can be observed.
func TestHelperProcess(t *testing.T) {
	raw := os.Getenv("DEPSCOPE_HELPER_ARGS")
	if raw == "" {
		t.Skip("helper process only")
	}
	os.Args = append([]string{"depscope"}, strings.Split(raw, "\x1f")...)
	main()
	os.Exit(0)
}

func TestBadFlagsExitNonZero(t *testing.T) {
	out, failed := rerun(t, "-error-policy", "bogus")
	if !failed {
		t.Fatalf("-error-policy bogus exited zero:\n%s", out)
	}
	if !strings.Contains(out, "unknown error policy") || !strings.Contains(out, "failfast or collect") {
		t.Errorf("-error-policy bogus output missing guidance:\n%s", out)
	}

	out, failed = rerun(t, "-incident", "no-such-preset")
	if !failed {
		t.Fatalf("-incident no-such-preset exited zero:\n%s", out)
	}
	if !strings.Contains(out, "unknown incident scenario") || !strings.Contains(out, "dyn-replay") {
		t.Errorf("-incident output missing preset listing:\n%s", out)
	}

	out, failed = rerun(t, "-scale", "300", "-q", "-outage", "no-such-provider.example")
	if !failed {
		t.Fatalf("-outage no-such-provider.example exited zero:\n%s", out)
	}
	if !strings.Contains(out, `unknown provider "no-such-provider.example"`) {
		t.Errorf("-outage output does not name the unknown provider:\n%s", out)
	}

	out, failed = rerun(t, "-scale", "300", "-compact", "-checkpoint", filepath.Join(t.TempDir(), "cp"))
	if !failed {
		t.Fatalf("-compact -checkpoint exited zero:\n%s", out)
	}
	if !strings.Contains(out, "resident world") || !strings.Contains(out, "-checkpoint without -compact") {
		t.Errorf("-compact -checkpoint output missing reason or flag hint:\n%s", out)
	}

	out, failed = rerun(t, "-scale", "300", "-batch-size", "100")
	if !failed {
		t.Fatalf("-batch-size without -compact exited zero:\n%s", out)
	}
	if !strings.Contains(out, "-batch-size") || !strings.Contains(out, "-compact") {
		t.Errorf("-batch-size output missing flag hint:\n%s", out)
	}
}
