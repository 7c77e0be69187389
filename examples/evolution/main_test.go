package main

import (
	"context"
	"strings"
	"testing"
)

// evolutionGolden is the comparison's output on the generated world of its
// default scale.
const evolutionGolden = `=== website -> DNS trends (Table 3) ===
k=8       pvt->3rd   0.0%  3rd->pvt   0.0%  critical delta  +0.0%
k=80      pvt->3rd   6.2%  3rd->pvt   1.5%  critical delta  +1.5%
k=800     pvt->3rd   9.4%  3rd->pvt   3.9%  critical delta  +4.9%
k=8K      pvt->3rd  10.6%  3rd->pvt   5.8%  critical delta  +4.5%

=== provider concentration (Figure 6) ===
DNS  2016:   76 providers for 80% coverage | 2020:   31
CDN  2016:    5 providers for 80% coverage | 2020:   11
CA   2016:    7 providers for 80% coverage | 2020:    4

=== Dyn's footprint ===
2016: used by 184 sites, critical for 76
2020: used by 44 sites, critical for 13

=== verdict ===
critical DNS dependency grew 4.5 points since the Dyn incident -
the ecosystem at large has not acted on the lesson (paper Obs 2).
`

// TestEvolutionOutputGolden pins the comparison byte for byte: the Table 3
// trends, the Figure 6 coverage counts and Dyn's footprint per snapshot.
func TestEvolutionOutputGolden(t *testing.T) {
	var b strings.Builder
	if err := compare(context.Background(), &b, 8000); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != evolutionGolden {
		t.Errorf("comparison output drifted:\n--- got\n%s--- want\n%s", got, evolutionGolden)
	}
}
