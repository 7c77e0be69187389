package intern

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictDenseIDs: first-seen order, stability, and round-tripping.
func TestDictDenseIDs(t *testing.T) {
	d := NewDict()
	names := []string{"dyn", "cloudflare", "aws", "dyn", "cloudflare"}
	want := []uint32{0, 1, 2, 0, 1}
	for i, n := range names {
		if id := d.ID(n); id != want[i] {
			t.Fatalf("ID(%q) = %d, want %d", n, id, want[i])
		}
	}
	for i, n := range []string{"dyn", "cloudflare", "aws"} {
		if got := d.Name(uint32(i)); got != n {
			t.Fatalf("Name(%d) = %q, want %q", i, got, n)
		}
	}
	if id := d.ID("aws"); id != 2 {
		t.Fatalf("ID(aws) after assignment = %d, want 2", id)
	}
}

// TestDictNamePanics: out-of-range IDs must fail loudly, not alias.
func TestDictNamePanics(t *testing.T) {
	d := NewDict()
	d.ID("only")
	defer func() {
		if recover() == nil {
			t.Fatal("Name(99) did not panic")
		}
	}()
	d.Name(99)
}

// TestDictConcurrent hammers ID from many goroutines over an overlapping
// key set and verifies every name maps to exactly one ID afterwards.
func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	const workers, keys = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				d.ID(fmt.Sprintf("name-%03d", (i+w)%keys))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool, keys)
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("name-%03d", i)
		id := d.ID(name)
		if seen[id] || id >= keys || d.Name(id) != name {
			t.Fatalf("%s: dup=%v id=%d name=%q", name, seen[id], id, d.Name(id))
		}
		seen[id] = true
	}
}

// TestGlobalDict: the process-wide table is shared and stable.
func TestGlobalDict(t *testing.T) {
	a := GlobalDict().ID("global-dict-probe-a")
	b := GlobalDict().ID("global-dict-probe-b")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if GlobalDict() != GlobalDict() || GlobalDict().ID("global-dict-probe-a") != a {
		t.Fatal("ID not stable")
	}
	if name := GlobalDict().Name(a); name != "global-dict-probe-a" {
		t.Fatalf("Name(%d) = %q", a, name)
	}
}
