package measure

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/ecosystem"
)

// streamView extends the pinned measurement view with the chain arrangement
// maps: the streaming path must reproduce the whole of Run's output,
// including pass 4, not just the pinned subset.
type streamView struct {
	pinnedView
	ResourceToDNS map[string]ProviderDep
	ResourceToCDN map[string]ProviderDep
}

func streamHash(t *testing.T, res *Results) string {
	t.Helper()
	view := streamView{
		pinnedView: pinnedView{
			Sites:           res.Sites,
			NSConcentration: res.NSConcentration,
			PairStats:       res.PairStats,
			EvidenceCounts:  res.EvidenceCounts,
			CDNToDNS:        res.CDNToDNS,
			CAToDNS:         res.CAToDNS,
			CAToCDN:         res.CAToCDN,
		},
		ResourceToDNS: res.ResourceToDNS,
		ResourceToCDN: res.ResourceToCDN,
	}
	b, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// driveStream runs the full chunked pipeline — zones per batch, seal, pages
// per batch with release — against a streaming universe materialization.
func driveStream(t *testing.T, u *ecosystem.Universe, snap ecosystem.Snapshot,
	chains *chain.Config, workers, batch int) *Results {
	t.Helper()
	res, err := streamRun(u, snap, chains, workers, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamRun is driveStream returning its error; adjust, when non-nil, edits
// the stream's Config (checkpoint fields) before NewStream.
func streamRun(u *ecosystem.Universe, snap ecosystem.Snapshot, chains *chain.Config,
	workers, batch int, adjust func(*Config)) (*Results, error) {
	c := ecosystem.NewChunked(u, snap)
	if chains != nil {
		c.EnableChains(*chains)
	}
	w := c.World()
	cfg := Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  workers,
		Chains:   chains,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	st, err := NewStream(c.SiteNames(), cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	n := c.Len()
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		c.AddSites(lo, hi)
		if err := st.ResolveBatch(ctx, lo, hi); err != nil {
			return nil, err
		}
	}
	st.Seal()
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		c.MaterializePages(lo, hi)
		if err := st.MeasureBatch(ctx, lo, hi); err != nil {
			return nil, err
		}
		c.ReleasePages(lo, hi)
	}
	if len(w.Pages) != 0 {
		return nil, fmt.Errorf("stream left %d pages resident", len(w.Pages))
	}
	return st.Finish(ctx)
}

// TestStreamMatchesRun is the streaming pinning property: batching the
// materialization and measurement — with pages released after each batch —
// produces the byte-identical measurement output of the monolithic
// Materialize + Run, with and without chains, across awkward batch sizes.
func TestStreamMatchesRun(t *testing.T) {
	cfg := chain.Default()
	for _, tc := range []struct {
		name   string
		chains *chain.Config
	}{{"plain", nil}, {"chains", &cfg}} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := ecosystem.Generate(ecosystem.Options{Scale: 300, Seed: 2020})
			if err != nil {
				t.Fatal(err)
			}
			w := ecosystem.Materialize(u, ecosystem.Y2020)
			if tc.chains != nil {
				ecosystem.MaterializeChains(u, w, *tc.chains)
			}
			mono, err := Run(context.Background(), w.Sites, Config{
				Resolver: w.NewResolver(),
				Certs:    w.Certs,
				Pages:    w,
				CDNMap:   CDNMap(w.CNAMEToCDN),
				Workers:  4,
				Chains:   tc.chains,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := streamHash(t, mono)
			for _, batch := range []int{1000, 64, 37} {
				res := driveStream(t, u, ecosystem.Y2020, tc.chains, 4, batch)
				if got := streamHash(t, res); got != want {
					t.Errorf("batch %d: stream hash %s != monolithic %s", batch, got, want)
				}
			}
		})
	}
}

// TestStreamWorkerDeterminism pins worker-count independence on the
// streaming path, mirroring the Run determinism guarantee.
func TestStreamWorkerDeterminism(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chain.Default()
	var want string
	for i, workers := range []int{1, 4, 13} {
		res := driveStream(t, u, ecosystem.Y2020, &cfg, workers, 50)
		got := streamHash(t, res)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: hash %s != workers=1 hash %s", workers, got, want)
		}
	}
}

// TestStreamCheckpointsMatchRun: a checkpointed multi-batch stream ends on a
// final checkpoint whose per-site progress encodes identically to Run's, and
// a fresh stream resumed from one of its mid-pass snapshots reproduces the
// uninterrupted measurement — chain pass included, whose host candidates
// must be captured for reused sites too.
func TestStreamCheckpointsMatchRun(t *testing.T) {
	const scale, seed, batch = 300, 2020, 37
	cfg := chain.Default()
	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	ecosystem.MaterializeChains(u, w, cfg)
	var runFinal *Checkpoint
	mono, err := Run(context.Background(), w.Sites, Config{
		Resolver:        w.NewResolver(),
		Certs:           w.Certs,
		Pages:           w,
		CDNMap:          CDNMap(w.CNAMEToCDN),
		Workers:         4,
		Chains:          &cfg,
		CheckpointLabel: "2020",
		OnCheckpoint:    func(cp *Checkpoint) error { runFinal = cp; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := streamHash(t, mono)

	var emitted []*Checkpoint
	res, err := streamRun(u, ecosystem.Y2020, &cfg, 4, batch, func(c *Config) {
		c.CheckpointLabel = "2020"
		c.CheckpointEvery = 100
		c.OnCheckpoint = func(cp *Checkpoint) error { emitted = append(emitted, cp); return nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamHash(t, res); got != want {
		t.Fatalf("checkpointed stream hash %s, want %s", got, want)
	}
	var seq []ckptEmission
	for _, cp := range emitted {
		seq = append(seq, summarizeCheckpoint(cp))
	}
	wantSeq := []ckptEmission{{scale, 0}, {scale, 100}, {scale, 200}, {scale, 300}, {scale, 300}}
	if !reflect.DeepEqual(seq, wantSeq) {
		t.Fatalf("stream emission sequence %v, want %v", seq, wantSeq)
	}
	if got, wantSites := checkpointSitesHash(t, emitted[len(emitted)-1]), checkpointSitesHash(t, runFinal); got != wantSites {
		t.Fatalf("stream final checkpoint sites hash %s, want Run's %s", got, wantSites)
	}

	reusedBefore := ckptReused.Value()
	resumed, err := streamRun(u, ecosystem.Y2020, &cfg, 4, batch, func(c *Config) {
		c.CheckpointLabel = "2020"
		c.Checkpoint = emitted[1]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptReused.Value() - reusedBefore; got != 100 {
		t.Fatalf("resumed stream reused %d checkpointed sites, want 100", got)
	}
	if got := streamHash(t, resumed); got != want {
		t.Fatalf("resumed stream hash %s, want uninterrupted %s", got, want)
	}
}
