//go:build !race

package main

import (
	"strings"
	"testing"
)

// TestGateMemBudget is the streaming engine's memory-budget gate, run by
// `make bench-gates`: a 50K-site budgeted run must complete under a
// workable 4GiB budget, and the same run under an impossible 32MiB budget
// must fail fast with the greppable budget error rather than crawl or
// exhaust memory.
func TestGateMemBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs depscope at 50K sites")
	}
	args := []string{"-scale", "50000", "-q", "-experiment", "table1", "-mem-budget"}
	if out, failed := rerun(t, append(args, "4GiB")...); failed {
		t.Fatalf("50K run under a 4GiB budget failed:\n%s", out)
	}
	out, failed := rerun(t, append(args, "32MiB")...)
	if !failed {
		t.Fatal("50K run under a 32MiB budget unexpectedly succeeded")
	}
	if !strings.Contains(out, "memory budget exceeded") {
		t.Fatalf("32MiB run failed without the budget error:\n%s", out)
	}
}
