package analysis

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/conc"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/membudget"
	"depscope/internal/telemetry"
)

// The combination matrix: every composition of Execute's run options must
// render the report of the resident reference for the same universe. A
// combination that cannot work must fail with a typed, documented error;
// today none does. A cell picks one level per dimension, in matrixLevels
// order: chains, memory budget, checkpoint mode, error policy, workers,
// batch size.
var (
	matrixBudgets  = []uint64{0, membudget.GiB}
	matrixCkpt     = []string{"off", "fresh", "resume"}
	matrixPolicies = []conc.Policy{conc.FailFast, conc.Collect}
	matrixWorkers  = []int{1, 4}
	// 70 splits the run into batches with a remainder; a batch size at or
	// above the site count is one batch, the same as the default.
	matrixBatches = []int{0, 70}
	matrixLevels  = [6]int{2, len(matrixBudgets), len(matrixCkpt), len(matrixPolicies), len(matrixWorkers), len(matrixBatches)}
)

const matrixScale, matrixSeed = 500, 7

type matrixCell [6]int

func (c matrixCell) String() string {
	return fmt.Sprintf("chains=%t/budget=%s/ckpt=%s/policy=%s/workers=%d/batch=%d",
		c[0] == 1, membudget.Format(matrixBudgets[c[1]]), matrixCkpt[c[2]],
		matrixPolicies[c[3]], matrixWorkers[c[4]], matrixBatches[c[5]])
}

// allCells enumerates the full matrix.
func allCells() []matrixCell {
	cells := []matrixCell{{}}
	for d, n := range matrixLevels {
		var next []matrixCell
		for _, c := range cells {
			for l := 0; l < n; l++ {
				c[d] = l
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

// pairwiseCells greedily picks cells until every pair of levels of any two
// dimensions appears in some picked cell.
func pairwiseCells(cells []matrixCell) []matrixCell {
	type pair struct{ d1, l1, d2, l2 int }
	pairsOf := func(c matrixCell) []pair {
		var ps []pair
		for d1 := range c {
			for d2 := d1 + 1; d2 < len(c); d2++ {
				ps = append(ps, pair{d1, c[d1], d2, c[d2]})
			}
		}
		return ps
	}
	uncovered := make(map[pair]bool)
	for _, c := range cells {
		for _, p := range pairsOf(c) {
			uncovered[p] = true
		}
	}
	var out []matrixCell
	for len(uncovered) > 0 {
		best, bestN := 0, -1
		for i, c := range cells {
			n := 0
			for _, p := range pairsOf(c) {
				if uncovered[p] {
					n++
				}
			}
			if n > bestN {
				best, bestN = i, n
			}
		}
		out = append(out, cells[best])
		for _, p := range pairsOf(cells[best]) {
			delete(uncovered, p)
		}
	}
	return out
}

// rollBackCheckpoint rewrites a finished run's checkpoint file to the state an
// interrupt mid site-pass leaves: results only for the first half of the
// ranks. It returns how many results it kept.
func rollBackCheckpoint(t *testing.T, path string) int {
	t.Helper()
	cp, err := measure.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	half := len(cp.Sites) / 2
	for site, sc := range cp.Sites {
		if sc.Result.Rank > half {
			delete(cp.Sites, site)
		}
	}
	if err := measure.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	return len(cp.Sites)
}

// TestCombinationMatrix runs every cell (a pairwise-covering subset under
// -short) and compares its report hash with the resident reference's. A
// "resume" cell measures with checkpoints, rolls both checkpoint files back to
// a mid site-pass state, and resumes; the kept results must be reused, which
// shows the streamed world's fingerprints match across runs.
func TestCombinationMatrix(t *testing.T) {
	chainLevels := []*chain.Config{nil, &defaultChains}
	ref := make(map[*chain.Config]string)
	for _, cfg := range chainLevels {
		ref[cfg] = reportHash(residentRun(t, Options{Scale: matrixScale, Seed: matrixSeed, Chains: cfg}))
	}
	cells := allCells()
	if testing.Short() {
		cells = pairwiseCells(cells)
	}
	reused := telemetry.Counter("checkpoint_sites_reused_total", "")
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			opts := Options{
				Scale:       matrixScale,
				Seed:        matrixSeed,
				Chains:      chainLevels[c[0]],
				MemBudget:   matrixBudgets[c[1]],
				ErrorPolicy: matrixPolicies[c[3]],
				Workers:     matrixWorkers[c[4]],
				BatchSize:   matrixBatches[c[5]],
			}
			ctx := context.Background()
			wantReused := int64(0)
			if mode := matrixCkpt[c[2]]; mode != "off" {
				opts.CheckpointPath = filepath.Join(t.TempDir(), "cp")
				if mode == "resume" {
					if _, err := Execute(ctx, opts); err != nil {
						t.Fatal(err)
					}
					for _, snap := range []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020} {
						wantReused += int64(rollBackCheckpoint(t, fmt.Sprintf("%s.%s", opts.CheckpointPath, snap)))
					}
					opts.Resume = true
				}
			}
			before := reused.Value()
			run, err := Execute(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := reused.Value() - before; got != wantReused {
				t.Errorf("reused %d checkpointed results, want %d", got, wantReused)
			}
			if got, want := reportHash(run), ref[opts.Chains]; got != want {
				t.Errorf("report hash %s, want the resident reference's %s", got, want)
			}
		})
	}
}

// TestCompleteResumeWritesNothing: resuming a finished checkpointed run
// reuses every site of both snapshots, saves no checkpoint, leaves both
// files byte-identical and renders the same report.
func TestCompleteResumeWritesNothing(t *testing.T) {
	const scale = 2000
	ctx := context.Background()
	opts := Options{Scale: scale, Seed: 2020, CheckpointPath: filepath.Join(t.TempDir(), "cp")}
	run, err := Execute(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := reportHash(run)
	snaps := []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020}
	files := make([][]byte, len(snaps))
	for i, snap := range snaps {
		if files[i], err = os.ReadFile(fmt.Sprintf("%s.%s", opts.CheckpointPath, snap)); err != nil {
			t.Fatal(err)
		}
	}

	saves := telemetry.Counter("checkpoint_saves_total", "")
	reused := telemetry.Counter("checkpoint_sites_reused_total", "")
	savesBefore, reusedBefore := saves.Value(), reused.Value()
	opts.Resume = true
	run, err = Execute(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := saves.Value() - savesBefore; got != 0 {
		t.Errorf("resume saved %d checkpoints, want none", got)
	}
	if got := reused.Value() - reusedBefore; got != 2*scale {
		t.Errorf("resume reused %d sites, want %d", got, 2*scale)
	}
	for i, snap := range snaps {
		got, err := os.ReadFile(fmt.Sprintf("%s.%s", opts.CheckpointPath, snap))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, files[i]) {
			t.Errorf("resume rewrote the %s checkpoint", snap)
		}
	}
	if got := reportHash(run); got != want {
		t.Errorf("resumed report hash %s, want %s", got, want)
	}
}
