package main

import (
	"context"
	"strings"
	"testing"
)

// TestAuditPrintsEverySection: the audit shows the site's nameservers, its
// certificate, its landing-page resource hosts, its measured dependencies
// and its single points of failure.
func TestAuditPrintsEverySection(t *testing.T) {
	var b strings.Builder
	if err := audit(context.Background(), &b, 3000, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, section := range []string{
		"dependency audit for ",
		"nameservers:",
		"certificate: issued by ",
		"landing-page resource hosts:",
		"measured dependencies:",
		"single points of failure",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("audit output lacks %q:\n%s", section, out)
		}
	}
}
