// Package membudget implements a soft memory-budget accountant for
// large-scale runs. The streaming materialization path checks the budget at
// batch boundaries: if the live heap exceeds the configured limit even after
// a collection, the run fails fast with a clear, actionable error instead of
// grinding into swap or dying on an opaque OOM kill minutes later. The
// budget is deliberately soft — Go gives no way to cap the heap of one
// computation — but batch-boundary checks bound the overshoot to roughly one
// batch of materialized state.
package membudget

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// Unit multipliers accepted by Parse. Both IEC ("GiB") and the colloquial
// SI-looking forms ("GB", "G") resolve to binary multiples: a user asking
// for -mem-budget 8GB means the machine's 8 gigabytes, not 7.45 of them.
const (
	KiB uint64 = 1 << 10
	MiB uint64 = 1 << 20
	GiB uint64 = 1 << 30
	TiB uint64 = 1 << 40
)

// Parse converts a human byte-size string ("8GiB", "512MiB", "2g",
// "1048576") to bytes. A bare number is bytes. Parsing is case-insensitive;
// fractional values ("1.5GiB") are accepted.
func Parse(s string) (uint64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("membudget: empty size")
	}
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"kib", KiB}, {"mib", MiB}, {"gib", GiB}, {"tib", TiB},
		{"kb", KiB}, {"mb", MiB}, {"gb", GiB}, {"tb", TiB},
		{"k", KiB}, {"m", MiB}, {"g", GiB}, {"t", TiB},
		{"b", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	b := v * float64(mult)
	// The range check also refuses NaN and ±Inf: converting any of them, or
	// a size of 2^64 bytes or more, to uint64 is implementation-defined.
	if err != nil || !(b >= 0 && b < 0x1p64) {
		return 0, fmt.Errorf("membudget: invalid size %q", s)
	}
	return uint64(b), nil
}

// Format renders bytes with the largest unit that keeps a short mantissa.
func Format(b uint64) string {
	switch {
	case b >= TiB:
		return fmt.Sprintf("%.1fTiB", float64(b)/float64(TiB))
	case b >= GiB:
		return fmt.Sprintf("%.1fGiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.1fMiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.1fKiB", float64(b)/float64(KiB))
	}
	return fmt.Sprintf("%dB", b)
}

// BudgetError reports a budget check that failed even after a collection.
type BudgetError struct {
	// Phase names the pipeline stage whose batch boundary tripped the check.
	Phase string
	// HeapAlloc is the live heap observed after the forced collection.
	HeapAlloc uint64
	// Limit is the configured budget.
	Limit uint64
}

// Error renders the greppable failure line TestGateMemBudget (make
// bench-gates) asserts on.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("membudget: memory budget exceeded during %s: live heap %s over the %s budget "+
		"(raise -mem-budget, lower -scale, or shrink the batch size)",
		e.Phase, Format(e.HeapAlloc), Format(e.Limit))
}

// Accountant tracks live heap against a soft limit. The zero limit means
// unlimited: Check never fails and only records the peak. An Accountant is
// meant to be polled from one goroutine at batch boundaries; it is not
// synchronized.
type Accountant struct {
	limit uint64
	peak  uint64
	// readMemStats is a test seam; production always uses runtime.ReadMemStats.
	readMemStats func(*runtime.MemStats)
}

// New creates an accountant over a soft limit in bytes; 0 means unlimited.
func New(limit uint64) *Accountant {
	return &Accountant{limit: limit, readMemStats: runtime.ReadMemStats}
}

// Limit returns the configured budget (0 = unlimited).
func (a *Accountant) Limit() uint64 { return a.limit }

// Peak returns the largest live heap any Check observed.
func (a *Accountant) Peak() uint64 { return a.peak }

// Check samples the live heap. Over the limit it forces one collection —
// most batch overshoot is garbage from the batch just released — and fails
// with a *BudgetError only if the heap is still over afterwards. phase names
// the stage for the error message.
func (a *Accountant) Check(phase string) error {
	var ms runtime.MemStats
	a.readMemStats(&ms)
	if ms.HeapAlloc > a.peak {
		a.peak = ms.HeapAlloc
	}
	if a.limit == 0 || ms.HeapAlloc <= a.limit {
		return nil
	}
	runtime.GC()
	a.readMemStats(&ms)
	if ms.HeapAlloc > a.peak {
		a.peak = ms.HeapAlloc
	}
	if ms.HeapAlloc <= a.limit {
		return nil
	}
	return &BudgetError{Phase: phase, HeapAlloc: ms.HeapAlloc, Limit: a.limit}
}
