package measure

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
			"b.example": {Result: &SiteResult{Site: "b.example", Rank: 2}},
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
		{"version 2 with NS sets", `{"version":2,"label":"2020","sites":{"a":{"fingerprint":"f","ns_done":true,"ns":["ns1.x."],"done":true,"result":{"Site":"a","Rank":1}}}}`, "checkpoint version 2"},
		{"site without result", fmt.Sprintf(`{"version":%d,"sites":{"a":{"fingerprint":"f"}}}`, CheckpointVersion), `site "a" has no result`},
		{"null site", fmt.Sprintf(`{"version":%d,"sites":{"a":null}}`, CheckpointVersion), `site "a" has no result`},
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
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"label":"2016","sites":{"a":{"fingerprint":"f","result":{"Site":"a","Rank":1}}}}`, CheckpointVersion)))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"sites":{"a":{"fingerprint":"f"}}}`, CheckpointVersion)))
	f.Add([]byte(`{"version":2,"label":"2016","sites":{"a":{"ns_done":true,"ns":["x."]}}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cp.Version != CheckpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
		for site, sc := range cp.Sites {
			if sc == nil || sc.Result == nil {
				t.Fatalf("accepted site %q without a result", site)
			}
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

// runBatched is Run with batch boundaries: it drives a Stream over a
// resident world's sites, measuring batch sites at a time, so a
// checkpointed run emits at the end of every batch.
func runBatched(ctx context.Context, sites []string, cfg Config, batch int) (*Results, error) {
	st, err := NewStream(sites, cfg)
	if err != nil {
		return nil, err
	}
	if err := st.ResolveBatch(ctx, 0, len(sites)); err != nil {
		return nil, err
	}
	st.Seal()
	for lo := 0; lo < len(sites); lo += batch {
		if err := st.MeasureBatch(ctx, lo, min(lo+batch, len(sites))); err != nil {
			return nil, err
		}
	}
	return st.Finish(ctx)
}

// TestResumedRunMatchesUninterrupted is the checkpoint equivalence pin: a
// run interrupted mid site-pass and resumed from its last checkpoint
// produces byte-identical Results (same measurement hash) to an
// uninterrupted run on the same world.
func TestResumedRunMatchesUninterrupted(t *testing.T) {
	const scale, seed, batch = 400, 1, 100
	ctx := context.Background()

	w := checkpointWorld(t, scale, seed, ecosystem.Y2020)
	ref, err := Run(ctx, w.Sites, checkpointConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	want := measurementHash(t, ref)

	// Interrupted run: abort at the first checkpoint emission, the end of
	// the first batch, keeping the snapshot.
	var captured *Checkpoint
	w2 := checkpointWorld(t, scale, seed, ecosystem.Y2020)
	cfg := checkpointConfig(w2)
	cfg.CheckpointLabel = "2020"
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		captured = cp
		return errInterrupted
	}
	if _, err := runBatched(ctx, w2.Sites, cfg, batch); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run error = %v, want %v", err, errInterrupted)
	}
	if captured == nil {
		t.Fatal("no checkpoint captured")
	}
	done := len(captured.Sites)
	if done != batch {
		t.Fatalf("checkpoint has %d sites, want the first batch's %d", done, batch)
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
		names := make([]string, 0, len(u.Providers))
		for name := range u.Providers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := u.Providers[name]
			exists := snap == ecosystem.Y2016 && p.Exists2016 || snap == ecosystem.Y2020 && p.Exists2020
			if p.Service == ecosystem.SvcDNS && exists && p.Name != ss.DNSProviders[0] && !strings.HasPrefix(p.Name, "Unknown DNS") {
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
	cfg.Fingerprint = w.Fingerprinter()
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
	fp2 := w2.Fingerprinter()
	var changed []string
	for site, sc := range final.Sites {
		if fp2(site) != sc.Fingerprint {
			changed = append(changed, site)
		}
	}
	if len(changed) != 1 || changed[0] != edited {
		t.Fatalf("fingerprints changed for %v, want only %s", changed, edited)
	}

	cfg2 := checkpointConfig(w2)
	cfg2.CheckpointLabel = "2016"
	cfg2.Fingerprint = fp2
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

// checkpointSizes returns the number of sites each emitted snapshot holds,
// failing the test on an entry without a result.
func checkpointSizes(t *testing.T, cps []*Checkpoint) []int {
	t.Helper()
	var out []int
	for _, cp := range cps {
		for site, sc := range cp.Sites {
			if sc == nil || sc.Result == nil {
				t.Fatalf("checkpoint entry %s has no result", site)
			}
		}
		out = append(out, len(cp.Sites))
	}
	return out
}

// checkpointSitesHash hashes the JSON encoding of a checkpoint's completed
// sites (encoding/json sorts the map keys, so it is canonical).
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
// seed-1 2020 run emits.
const finalCheckpointGolden = "f72d67fd9ce795358d0a54b30b8efb217da3066e85c70da69a3f04f4f3ba26cc"

// TestCheckpointEmissionGolden pins when a checkpointed stream emits — once
// at the end of every batch, each snapshot holding every site completed so
// far — and the final snapshot's content. A resume of that final snapshot
// reuses every site and emits nothing.
func TestCheckpointEmissionGolden(t *testing.T) {
	const scale, batch = 400, 100
	ctx := context.Background()
	w := checkpointWorld(t, scale, 1, ecosystem.Y2020)
	cfg := checkpointConfig(w)
	cfg.CheckpointLabel = "2020"
	var emitted []*Checkpoint
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		if cp.Version != CheckpointVersion || cp.Label != "2020" {
			t.Errorf("emission %d: version %d label %q", len(emitted), cp.Version, cp.Label)
		}
		emitted = append(emitted, cp)
		return nil
	}
	if _, err := runBatched(ctx, w.Sites, cfg, batch); err != nil {
		t.Fatal(err)
	}
	if got, want := checkpointSizes(t, emitted), []int{100, 200, 300, 400}; !reflect.DeepEqual(got, want) {
		t.Fatalf("emission sequence %v, want %v", got, want)
	}
	last := emitted[len(emitted)-1]
	if h := checkpointSitesHash(t, last); h != finalCheckpointGolden {
		t.Errorf("final checkpoint sites hash %s, want %s", h, finalCheckpointGolden)
	}

	emitted = nil
	cfg.Checkpoint = last
	reusedBefore := ckptReused.Value()
	if _, err := runBatched(ctx, w.Sites, cfg, batch); err != nil {
		t.Fatal(err)
	}
	if got := ckptReused.Value() - reusedBefore; got != scale {
		t.Errorf("complete resume reused %d sites, want %d", got, scale)
	}
	if len(emitted) != 0 {
		t.Errorf("complete resume emitted %d checkpoints, want none", len(emitted))
	}

	// Missing the top site, the resume measures it in the first batch and
	// from then on emits at the end of every batch, reused ones included.
	emitted = nil
	partial := &Checkpoint{Version: last.Version, Label: last.Label, Sites: maps.Clone(last.Sites)}
	delete(partial.Sites, w.Sites[0])
	cfg.Checkpoint = partial
	if _, err := runBatched(ctx, w.Sites, cfg, batch); err != nil {
		t.Fatal(err)
	}
	if got, want := checkpointSizes(t, emitted), []int{100, 200, 300, 400}; !reflect.DeepEqual(got, want) {
		t.Fatalf("partial resume emission sequence %v, want %v", got, want)
	}
	if h := checkpointSitesHash(t, emitted[len(emitted)-1]); h != finalCheckpointGolden {
		t.Errorf("partial resume final checkpoint sites hash %s, want %s", h, finalCheckpointGolden)
	}
}
