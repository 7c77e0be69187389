package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"depscope/internal/alexa"
	"depscope/internal/dnsserver"
	"depscope/internal/ecosystem"
)

// TestAuditAgainstLiveServer runs the real-wire audit against a depserver
// world: an end-to-end integration of list parsing, UDP transport, the
// measurement pipeline and report rendering.
func TestAuditAgainstLiveServer(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	world := ecosystem.Materialize(u, ecosystem.Y2020)
	srv := dnsserver.New(world.Zones, dnsserver.Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Include a domain outside all authority: the Collect error policy must
	// keep the run alive and report it as unknown.
	list, err := alexa.FromDomains(append(world.Sites[:40:40], "not-in-this-world.example"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sb strings.Builder
	if err := audit(ctx, &sb, addr, list, 3, 8, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "41 sites via") {
		t.Errorf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "uncharacterized") {
		t.Errorf("unknown site not reported:\n%s", out)
	}
	if !strings.Contains(out, "top third-party DNS providers:") {
		t.Errorf("provider summary missing:\n%s", out)
	}
	if !strings.Contains(out, "not-in-this-world.example") {
		t.Errorf("dead domain missing from per-site lines:\n%s", out)
	}
	if srv.Queries() == 0 {
		t.Error("no queries hit the wire")
	}
}
