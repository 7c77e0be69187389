package measure

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"depscope/internal/core"
	"depscope/internal/ecosystem"
)

func checkpointWorld(t *testing.T, scale int, seed int64, snap ecosystem.Snapshot) *ecosystem.World {
	t.Helper()
	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ecosystem.Materialize(u, snap)
}

func checkpointConfig(w *ecosystem.World) Config {
	return Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  4,
	}
}

func TestCheckpointCodecRoundtrip(t *testing.T) {
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Label:   "2020",
		Sites: map[string]*SiteCheckpoint{
			"a.example": {
				Fingerprint: "fp-a",
				NSDone:      true,
				NS:          []string{"ns1.dyn.example.", "ns2.dyn.example."},
				Done:        true,
				Result: &SiteResult{
					Site: "a.example",
					Rank: 1,
					DNS: SiteDNS{
						Class:     core.ClassSingleThird,
						Providers: []string{"dyn.example"},
						Pairs:     []NSPair{{Host: "ns1.dyn.example.", Class: Third, Evidence: "tld", Entity: "dyn.example"}},
					},
				},
			},
			"b.example": {Fingerprint: "fp-b", NSDone: true},
		},
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, cp)
	}
}

// TestDecodeCheckpointRejectsBadInput covers every corrupt-input class the
// loader must refuse with a diagnostic: never a partial resume.
func TestDecodeCheckpointRejectsBadInput(t *testing.T) {
	valid := fmt.Sprintf(`{"version":%d,"label":"2020","sites":{}}`, CheckpointVersion)
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "decode checkpoint"},
		{"truncated", valid[:len(valid)/2], "decode checkpoint"},
		{"wrong version", `{"version":99,"sites":{}}`, "version 99"},
		{"zero version", `{"sites":{}}`, "version 0"},
		{"unknown top-level field", fmt.Sprintf(`{"version":%d,"sites":{},"bogus":1}`, CheckpointVersion), "bogus"},
		{"unknown site field", fmt.Sprintf(`{"version":%d,"sites":{"a":{"doone":true}}}`, CheckpointVersion), "doone"},
		{"trailing data", valid + `{"version":1}`, "trailing data"},
		{"version 1 with resolver cache", `{"version":1,"label":"2020","sites":{},"resolver":[{"name":"a.example.","type":2}]}`, "version 1"},
		{"not json", "checkpoint v1\x00\x01", "decode checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := DecodeCheckpoint(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("decoded %q into %+v, want error", tc.in, cp)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"sites":{}}`, CheckpointVersion)))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"label":"2016","sites":{"a":{"ns_done":true,"ns":["x."]}}}`, CheckpointVersion)))
	f.Add([]byte(`{"version":1,"sites":{},"resolver":[{"name":"a.example.","type":2}]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err == nil && cp.Version != CheckpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
	})
}

func TestSaveLoadCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := &Checkpoint{Version: CheckpointVersion, Label: "2016", Sites: map[string]*SiteCheckpoint{}}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// Overwrite — the rename must replace, and no temp files may linger.
	cp.Label = "2020"
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "2020" {
		t.Fatalf("loaded label %q, want 2020", got.Label)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries (temp files left behind?)", len(entries))
	}
}

func TestRunRejectsCheckpointLabelMismatch(t *testing.T) {
	w := checkpointWorld(t, 50, 7, ecosystem.Y2020)
	cfg := checkpointConfig(w)
	cfg.Checkpoint = &Checkpoint{Version: CheckpointVersion, Label: "2016", Sites: map[string]*SiteCheckpoint{}}
	cfg.CheckpointLabel = "2020"
	_, err := Run(context.Background(), w.Sites, cfg)
	if err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("Run = %v, want label mismatch error", err)
	}
}

// errInterrupted is the sentinel the interrupt tests abort a run with.
var errInterrupted = errors.New("interrupted for test")

// TestResumedRunMatchesUninterrupted is the checkpoint equivalence pin: a
// run interrupted mid site-pass and resumed from its last checkpoint
// produces byte-identical Results (same measurement hash) to an
// uninterrupted run on the same world.
func TestResumedRunMatchesUninterrupted(t *testing.T) {
	const scale, seed = 400, 1
	ctx := context.Background()

	w := checkpointWorld(t, scale, seed, ecosystem.Y2020)
	ref, err := Run(ctx, w.Sites, checkpointConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	want := measurementHash(t, ref)

	// Interrupted run: abort at the first mid-pass-2 checkpoint emission
	// (the first emission is the pass-1 boundary), keeping the snapshot.
	var captured *Checkpoint
	emissions := 0
	w2 := checkpointWorld(t, scale, seed, ecosystem.Y2020)
	cfg := checkpointConfig(w2)
	cfg.CheckpointLabel = "2020"
	cfg.CheckpointEvery = 100
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		emissions++
		captured = cp
		if emissions >= 2 {
			return errInterrupted
		}
		return nil
	}
	if _, err := Run(ctx, w2.Sites, cfg); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run error = %v, want %v", err, errInterrupted)
	}
	if captured == nil {
		t.Fatal("no checkpoint captured")
	}
	done := 0
	for _, sc := range captured.Sites {
		if sc.Done {
			done++
		}
	}
	if done == 0 || done >= scale {
		t.Fatalf("checkpoint has %d done sites, want a strict subset of %d", done, scale)
	}

	// Resumed run on a fresh world and resolver.
	w3 := checkpointWorld(t, scale, seed, ecosystem.Y2020)
	cfg3 := checkpointConfig(w3)
	cfg3.CheckpointLabel = "2020"
	cfg3.Checkpoint = captured
	reusedBefore := ckptReused.Value()
	res, err := Run(ctx, w3.Sites, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptReused.Value() - reusedBefore; got != int64(done) {
		t.Fatalf("resumed run reused %d checkpointed sites, want %d", got, done)
	}
	if got := measurementHash(t, res); got != want {
		t.Fatalf("resumed measurement hash %s, want uninterrupted %s", got, want)
	}
}

// moveOneSiteDNS edits u in place: the first single-third, trap-free site
// of snap's list moves to another characterizable DNS provider. It returns
// the site's domain.
func moveOneSiteDNS(t *testing.T, u *ecosystem.Universe, snap ecosystem.Snapshot) string {
	t.Helper()
	for _, s := range u.List(snap) {
		ss := &s.Snap[snap]
		if ss.DNSMode != ecosystem.DepSingleThird || ss.DNSTrap != ecosystem.TrapNone {
			continue
		}
		for _, p := range u.ProvidersOf(ecosystem.SvcDNS, snap) {
			if p.Name != ss.DNSProviders[0] && !strings.HasPrefix(p.Name, "Unknown DNS") {
				ss.DNSProviders = []string{p.Name}
				return s.Domain
			}
		}
	}
	t.Fatal("no single-third, trap-free site to edit")
	return ""
}

// TestEditedUniverseRemeasuresOnlyChangedSites: resuming a finished run on
// a universe where one site moved to another DNS provider re-measures
// exactly that site, against the current zones, and produces results
// identical to a from-scratch run on the edited universe.
func TestEditedUniverseRemeasuresOnlyChangedSites(t *testing.T) {
	const scale, seed = 200, 2020
	const snap = ecosystem.Y2016
	ctx := context.Background()

	w := checkpointWorld(t, scale, seed, snap)
	var final *Checkpoint
	cfg := checkpointConfig(w)
	cfg.CheckpointLabel = "2016"
	cfg.Fingerprints = w.SiteFingerprints()
	cfg.OnCheckpoint = func(cp *Checkpoint) error { final = cp; return nil }
	if _, err := Run(ctx, w.Sites, cfg); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("no final checkpoint")
	}

	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edited := moveOneSiteDNS(t, u, snap)
	fresh := ecosystem.Materialize(u, snap)
	ref, err := Run(ctx, fresh.Sites, checkpointConfig(fresh))
	if err != nil {
		t.Fatal(err)
	}
	want := measurementHash(t, ref)

	w2 := ecosystem.Materialize(u, snap)
	fps2 := w2.SiteFingerprints()
	var changed []string
	for site, fp := range fps2 {
		if fp != cfg.Fingerprints[site] {
			changed = append(changed, site)
		}
	}
	if len(changed) != 1 || changed[0] != edited {
		t.Fatalf("fingerprints changed for %v, want only %s", changed, edited)
	}

	cfg2 := checkpointConfig(w2)
	cfg2.CheckpointLabel = "2016"
	cfg2.Fingerprints = fps2
	cfg2.Checkpoint = final
	reusedBefore := ckptReused.Value()
	res, err := Run(ctx, w2.Sites, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptReused.Value() - reusedBefore; got != int64(scale-1) {
		t.Fatalf("reused %d sites, want %d (all but %s)", got, scale-1, edited)
	}
	if got := measurementHash(t, res); got != want {
		t.Fatalf("incremental re-measurement hash %s, want fresh run on the edited universe %s", got, want)
	}
}

// ckptEmission summarizes one OnCheckpoint snapshot: how many sites carry a
// pass-1 NS set and how many a completed pass-2 result.
type ckptEmission struct{ NSDone, Done int }

func summarizeCheckpoint(cp *Checkpoint) ckptEmission {
	var e ckptEmission
	for _, sc := range cp.Sites {
		if sc.NSDone {
			e.NSDone++
		}
		if sc.Done {
			e.Done++
		}
	}
	return e
}

// checkpointSitesHash hashes the JSON encoding of a checkpoint's per-site
// progress (encoding/json sorts the map keys, so it is canonical).
func checkpointSitesHash(t *testing.T, cp *Checkpoint) string {
	t.Helper()
	b, err := json.Marshal(cp.Sites)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// finalCheckpointGolden is the Sites hash of the final checkpoint a 400-site
// seed-1 2020 run emits; captured before checkpointing moved into Stream.
const finalCheckpointGolden = "4f4a0adfc86d3ad187897f91a8d5920575a5b7af8bfbc8a266b4d1e3d20944f4"

// TestCheckpointEmissionSequence pins when a checkpointed Run emits: one
// pass-1 boundary snapshot (every NS set, no results), one snapshot per
// CheckpointEvery completed sites, then the final snapshot of the whole run.
func TestCheckpointEmissionSequence(t *testing.T) {
	const scale = 400
	w := checkpointWorld(t, scale, 1, ecosystem.Y2020)
	cfg := checkpointConfig(w)
	cfg.CheckpointLabel = "2020"
	cfg.CheckpointEvery = 100
	var got []ckptEmission
	var last *Checkpoint
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		if cp.Version != CheckpointVersion || cp.Label != "2020" {
			t.Errorf("emission %d: version %d label %q", len(got), cp.Version, cp.Label)
		}
		got = append(got, summarizeCheckpoint(cp))
		last = cp
		return nil
	}
	if _, err := Run(context.Background(), w.Sites, cfg); err != nil {
		t.Fatal(err)
	}
	want := []ckptEmission{{scale, 0}, {scale, 100}, {scale, 200}, {scale, 300}, {scale, 400}, {scale, 400}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emission sequence %v, want %v", got, want)
	}
	if h := checkpointSitesHash(t, last); h != finalCheckpointGolden {
		t.Errorf("final checkpoint sites hash %s, want %s", h, finalCheckpointGolden)
	}
}
