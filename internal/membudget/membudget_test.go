package membudget

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"0", 0},
		{"123456", 123456},
		{"1KiB", 1 << 10},
		{"8GiB", 8 << 30},
		{"8gb", 8 << 30},
		{"512MiB", 512 << 20},
		{"2g", 2 << 30},
		{"1.5GiB", 3 << 29},
		{"1TiB", 1 << 40},
		{"64b", 64},
		{" 16 MiB ", 16 << 20},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "GiB", "-1", "-1GiB", "1XB", "nan", "inf", "1e30GiB"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{512, "512B"},
		{2 << 10, "2.0KiB"},
		{8 << 30, "8.0GiB"},
		{3 << 29, "1.5GiB"},
	}
	for _, c := range cases {
		if got := Format(c.in); got != c.want {
			t.Errorf("Format(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCheckUnlimited: a zero limit never fails but still tracks the peak.
func TestCheckUnlimited(t *testing.T) {
	a := New(0)
	if err := a.Check("phase"); err != nil {
		t.Fatalf("unlimited Check: %v", err)
	}
	if a.Peak() == 0 {
		t.Fatal("unlimited Check recorded no peak")
	}
}

func TestCheckUnderLimit(t *testing.T) {
	a := New(1 << 50) // far above any test heap
	if err := a.Check("phase"); err != nil {
		t.Fatalf("under-limit Check: %v", err)
	}
}

// TestCheckOverLimit uses the readMemStats seam to simulate a heap that stays
// over budget through the forced collection, and asserts the error shape.
func TestCheckOverLimit(t *testing.T) {
	a := New(100)
	a.readMemStats = func(ms *runtime.MemStats) { ms.HeapAlloc = 250 }
	err := a.Check("measure batch 3")
	if err == nil {
		t.Fatal("over-limit Check: want error")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T: %v", err, err)
	}
	if be.Phase != "measure batch 3" || be.Limit != 100 || be.HeapAlloc != 250 {
		t.Fatalf("BudgetError fields: %+v", be)
	}
	if !strings.Contains(err.Error(), "memory budget exceeded") {
		t.Fatalf("error message not greppable: %q", err.Error())
	}
	if a.Peak() != 250 {
		t.Fatalf("Peak = %d, want 250", a.Peak())
	}
}

// TestCheckRecoversAfterGC: the first sample is over, the post-GC sample is
// under — Check must succeed (the overshoot was batch garbage).
func TestCheckRecoversAfterGC(t *testing.T) {
	a := New(100)
	calls := 0
	a.readMemStats = func(ms *runtime.MemStats) {
		calls++
		if calls == 1 {
			ms.HeapAlloc = 250
		} else {
			ms.HeapAlloc = 50
		}
	}
	if err := a.Check("resolve batch 0"); err != nil {
		t.Fatalf("recovering Check: %v", err)
	}
	if calls != 2 {
		t.Fatalf("readMemStats calls = %d, want 2", calls)
	}
}
