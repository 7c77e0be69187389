package intern

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func sameStorage(a, b string) bool {
	return unsafe.StringData(a) == unsafe.StringData(b)
}

func TestInternReturnsCanonicalCopy(t *testing.T) {
	p := NewPool()
	a := p.Intern("ns1.example.com.")
	b := p.Intern(strings.ToLower("NS1.EXAMPLE.COM."))
	if a != b {
		t.Fatalf("interned values differ: %q vs %q", a, b)
	}
	if !sameStorage(a, b) {
		t.Fatal("interned equal strings do not share storage")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestBytesMatchesIntern(t *testing.T) {
	p := NewPool()
	s := p.Intern("cdn.example.net.")
	got := p.Bytes([]byte("cdn.example.net."))
	if got != s || !sameStorage(got, s) {
		t.Fatal("Bytes did not return the interned canonical string")
	}
	if p.Bytes(nil) != "" || p.Intern("") != "" {
		t.Fatal("empty inputs must return empty string")
	}
}

func TestBytesHitPathDoesNotAllocate(t *testing.T) {
	p := NewPool()
	b := []byte("zero-alloc.example.org.")
	p.Bytes(b)
	allocs := testing.AllocsPerRun(200, func() {
		p.Bytes(b)
	})
	if allocs > 0 {
		t.Fatalf("Bytes hit path allocates %.1f per run, want 0", allocs)
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, 100)
			for i := range out {
				out[i] = p.Intern(fmt.Sprintf("host-%d.example.com.", i))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if !sameStorage(results[0][i], results[g][i]) {
				t.Fatalf("goroutine %d got a different copy for index %d", g, i)
			}
		}
	}
	if p.Len() != 100 {
		t.Fatalf("Len = %d, want 100", p.Len())
	}
}
