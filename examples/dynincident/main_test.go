package main

import (
	"context"
	"strings"
	"testing"
)

// dynincidentGolden is the replay's output on the generated world of its
// default scale.
const dynincidentGolden = `=== October 21, 2016: Dyn goes down ===
sites dark via their own Dyn dependency:  76
sites dark including provider chains:     150

providers that fell with Dyn:
  Fastly                   (DNS of 100 sites)

collateral victims (the Pinterest effect): 74 sites, e.g. [w000069.com w000080.org w000293.in w000346.com w000351.com]
Dyn customers that stayed up (redundant DNS): 108
`

// TestDynIncidentOutputGolden pins the replay byte for byte: the Dyn impact
// sets, the providers that fell with Dyn and the collateral victims.
func TestDynIncidentOutputGolden(t *testing.T) {
	var b strings.Builder
	if err := replay(context.Background(), &b, 8000); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != dynincidentGolden {
		t.Errorf("replay output drifted:\n--- got\n%s--- want\n%s", got, dynincidentGolden)
	}
}
