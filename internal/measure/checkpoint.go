package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"

	"depscope/internal/strictjson"
	"depscope/internal/telemetry"
)

// Checkpointed measurement runs. A checkpoint holds what a resume can use:
// one completed SiteResult per measured site and the content fingerprint of
// what was measured. The stream records a batch's sites once the batch is
// measured and emits the checkpoint at the end of the batch, so an
// interrupted run handed its last checkpoint resumes at a batch boundary,
// and a finished run handed an edited universe re-measures only the sites
// whose fingerprints changed (a provider-side edit changes every
// fingerprint and forces a full re-run — see ecosystem.World.Fingerprinter).
// Pass 1 always runs again: resolving every site's NS set is cheap next to
// classification, and the current zones answer it. The resolver's cache is
// not kept either: every re-measured site asks the current zones, so no
// answer outlives the fingerprint that vouched for it.
//
// The checkpoint is the pipeline's only mutable cross-run state, so the
// codec is strict: a versioned JSON document, unknown fields rejected, a
// version or label mismatch refused outright. A corrupt or truncated file
// fails the load with a diagnostic — never a partial resume.

// CheckpointVersion is the file-format version this build reads and writes.
const CheckpointVersion = 3

// Checkpoint is a serialized snapshot of measurement progress.
type Checkpoint struct {
	// Version is the file-format version (CheckpointVersion).
	Version int `json:"version"`
	// Label identifies the run (depscope uses the snapshot year). NewStream
	// (and so Run) refuses to resume from a checkpoint whose label differs from the
	// configured one.
	Label string `json:"label,omitempty"`
	// Sites holds the completed sites, keyed by site domain.
	Sites map[string]*SiteCheckpoint `json:"sites"`
}

// SiteCheckpoint is one completed site.
type SiteCheckpoint struct {
	// Fingerprint is the site's content fingerprint at measurement time;
	// resume reuses the entry only when it matches the current universe.
	Fingerprint string      `json:"fingerprint,omitempty"`
	Result      *SiteResult `json:"result"`
}

// Checkpoint telemetry (see docs/observability.md).
var (
	ckptReused = telemetry.Counter("checkpoint_sites_reused_total",
		"checkpointed site results reused without re-measurement")
	ckptSaves = telemetry.Counter("checkpoint_saves_total",
		"checkpoint snapshots emitted to the configured saver")
)

// Encode writes the checkpoint as JSON.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("measure: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint, rejecting version mismatches,
// trailing garbage, unknown fields and site entries without a result. A
// valid file is decoded once, strictly; only when that fails is the document
// probed leniently for its version, so a file of another format version is
// refused by its version, not by the first field this build does not know.
// Every failure is a hard error: a resume either gets the complete recorded
// state or nothing. Unlike every other document, a checkpoint's keys still
// match its fields in any case (strictjson.DecodeFoldCase): the case check
// is a second pass over a file of several MB, and stays off until the
// checkpoint is a journal whose records each bound what one decode reads.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("measure: decode checkpoint: %w", err)
	}
	var c Checkpoint
	if err := strictjson.DecodeFoldCase(bytes.NewReader(data), &c); err != nil {
		var head struct {
			Version int `json:"version"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&head) == nil && head.Version != CheckpointVersion {
			return nil, versionError(head.Version)
		}
		return nil, fmt.Errorf("measure: decode checkpoint: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, versionError(c.Version)
	}
	for site, sc := range c.Sites {
		if sc == nil || sc.Result == nil {
			return nil, fmt.Errorf("measure: decode checkpoint: site %q has no result", site)
		}
	}
	return &c, nil
}

func versionError(v int) error {
	return fmt.Errorf("measure: checkpoint version %d, this build reads version %d", v, CheckpointVersion)
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("measure: load checkpoint: %w", err)
	}
	defer f.Close()
	c, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return c, nil
}

// SaveCheckpoint writes a checkpoint file atomically (temp file + rename in
// the target directory), so an interrupt mid-save never corrupts the
// previous checkpoint.
func SaveCheckpoint(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("measure: save checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if err := c.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("measure: save checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("measure: save checkpoint: %w", err)
	}
	return nil
}

// ckptRun is the in-run checkpoint recorder: it validates the prior
// checkpoint against the configured label, answers the site pass's "is this
// site already measured?" query, accumulates the completed sites and emits
// snapshots through cfg.OnCheckpoint. lookup is safe for concurrent use by
// the site-pass workers; endBatch runs on the stream's own goroutine,
// between batches.
type ckptRun struct {
	cp    *Checkpoint
	prior map[string]*SiteCheckpoint
	fp    func(site string) string
	emit  func(*Checkpoint) error
	// fresh reports that this run has measured a site rather than reused
	// it. Until then the prior checkpoint — the file on disk — already
	// holds every entry the run recorded, so there is nothing to emit.
	fresh bool
}

// newCkptRun builds the recorder, or returns nil when the run is not
// checkpointed.
func newCkptRun(cfg *Config, nSites int) (*ckptRun, error) {
	if cfg.Checkpoint == nil && cfg.OnCheckpoint == nil {
		return nil, nil
	}
	ck := &ckptRun{
		cp: &Checkpoint{
			Version: CheckpointVersion,
			Label:   cfg.CheckpointLabel,
			Sites:   make(map[string]*SiteCheckpoint, nSites),
		},
		fp:   cfg.Fingerprint,
		emit: cfg.OnCheckpoint,
	}
	if prev := cfg.Checkpoint; prev != nil {
		if prev.Label != cfg.CheckpointLabel {
			return nil, fmt.Errorf("measure: checkpoint label %q does not match run label %q",
				prev.Label, cfg.CheckpointLabel)
		}
		ck.prior = prev.Sites
	}
	return ck, nil
}

// lookup fingerprints site, whose page must be live, and returns the
// fingerprint with the prior result still valid for it (nil when the site
// must be measured).
func (ck *ckptRun) lookup(site string) (string, *SiteResult) {
	fp := ""
	if ck.fp != nil {
		fp = ck.fp(site)
	}
	sc := ck.prior[site]
	if sc == nil || sc.Result == nil || sc.Fingerprint != fp {
		return fp, nil
	}
	ckptReused.Inc()
	return fp, sc.Result
}

// endBatch records a measured batch — sites with their fingerprints and
// results, of which measured were measured rather than reused — and emits a
// snapshot of every site recorded so far, unless this run has reused every
// site it has seen. Results are copied so the checkpoint never aliases the
// live Results slice.
func (ck *ckptRun) endBatch(sites, fps []string, results []SiteResult, measured int) error {
	for i, site := range sites {
		r := results[i]
		ck.cp.Sites[site] = &SiteCheckpoint{Fingerprint: fps[i], Result: &r}
	}
	ck.fresh = ck.fresh || measured > 0
	if ck.emit == nil || !ck.fresh {
		return nil
	}
	ckptSaves.Inc()
	snap := &Checkpoint{Version: ck.cp.Version, Label: ck.cp.Label, Sites: maps.Clone(ck.cp.Sites)}
	if err := ck.emit(snap); err != nil {
		return fmt.Errorf("measure: checkpoint save: %w", err)
	}
	return nil
}
