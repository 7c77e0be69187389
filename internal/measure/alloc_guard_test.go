package measure

import "testing"

// TestCompiledCDNMapMatchAllocs guards the per-page-host hot path: matching
// a canonical (lowercase, trailing-dot) name against a compiled CDN map must
// not allocate, hit or miss. Normalize returns substrings for such names,
// and the suffix probes are substrings too.
func TestCompiledCDNMapMatchAllocs(t *testing.T) {
	m := CDNMap{
		"fastcdn.test":     "FastCDN",
		"edgecast.example": "EdgeCast",
		"cdn.example.net":  "ExampleCDN",
	}
	c := m.compile()
	names := []string{
		"edge.fastcdn.test.",  // suffix hit
		"fastcdn.test.",       // exact hit
		"nomatch.other.test.", // miss
		"static.edgecast.example.",
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, n := range names {
			c.Match(n)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled Match allocates %.1f per %d lookups, want 0", allocs, len(names))
	}
}
