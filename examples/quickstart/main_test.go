package main

import (
	"context"
	"strings"
	"testing"
)

// quickstartGolden is the quickstart's output on its 5K-site world: the
// Figure 2/4 headline shares, the Figure 5 DNS ranking and the Figure 7
// DNSMadeEasy row.
const quickstartGolden = `third-party DNS use:        87.5% of characterized sites
critical DNS dependency:    83.1%
HTTPS adoption:             78.2% of sites
third-party CA use:         76.9% of HTTPS sites

top DNS providers (concentration / impact):
  cloudflare.com        24.2% /  23.3%
  awsdns.net            10.1% /   9.1%
  domaincontrol.com      8.7% /   8.1%

DNSMadeEasy impact: 1.0% direct -> 26.4% via CA dependencies (26x)
`

// TestQuickstartOutputGolden pins the quickstart byte for byte; its
// rankings go through TopProviders and ProvidersOfService.
func TestQuickstartOutputGolden(t *testing.T) {
	var b strings.Builder
	if err := quickstart(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != quickstartGolden {
		t.Errorf("quickstart output drifted:\n--- got\n%s--- want\n%s", got, quickstartGolden)
	}
}
