package measure

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sync"

	"depscope/internal/resolver"
	"depscope/internal/telemetry"
)

// Checkpointed measurement runs. The pipeline's two expensive passes — NS
// resolution and per-site classification — persist their progress into a
// Checkpoint as they go: per-site NS sets, completed SiteResults, a content
// fingerprint of what was measured, and the resolver's warm cache. An
// interrupted run handed its last checkpoint resumes where it stopped, and
// a finished run handed an edited universe re-measures only the sites whose
// fingerprints changed (a provider-side edit changes every fingerprint and
// forces a full re-run — see ecosystem.World.SiteFingerprints).
//
// The checkpoint is the pipeline's only mutable cross-run state, so the
// codec is strict: a versioned JSON document, unknown fields rejected, a
// version or label mismatch refused outright. A corrupt or truncated file
// fails the load with a diagnostic — never a partial resume.

// CheckpointVersion is the file-format version this build reads and writes.
const CheckpointVersion = 1

// Checkpoint is a serialized snapshot of measurement progress.
type Checkpoint struct {
	// Version is the file-format version (CheckpointVersion).
	Version int `json:"version"`
	// Label identifies the run (depscope uses the snapshot year). NewStream
	// (and so Run) refuses to resume from a checkpoint whose label differs from the
	// configured one.
	Label string `json:"label,omitempty"`
	// Sites holds per-site progress, keyed by site domain.
	Sites map[string]*SiteCheckpoint `json:"sites"`
	// Resolver is the exported resolver cache, seeded back on resume so
	// re-measured sites start warm.
	Resolver []resolver.CachedLookup `json:"resolver,omitempty"`
}

// SiteCheckpoint is one site's checkpointed progress.
type SiteCheckpoint struct {
	// Fingerprint is the site's content fingerprint at measurement time;
	// resume reuses the entry only when it matches the current universe.
	Fingerprint string `json:"fingerprint,omitempty"`
	// NSDone reports the pass-1 NS set was recorded (NS may still be empty
	// for sites that did not resolve under a tolerant error policy).
	NSDone bool     `json:"ns_done,omitempty"`
	NS     []string `json:"ns,omitempty"`
	// Done reports pass-2 completed for this site; Result is its outcome.
	Done   bool        `json:"done,omitempty"`
	Result *SiteResult `json:"result,omitempty"`
}

// Checkpoint telemetry (see docs/observability.md).
var (
	ckptReused = telemetry.Counter("checkpoint_sites_reused_total",
		"checkpointed site results reused without re-measurement")
	ckptNSReused = telemetry.Counter("checkpoint_ns_reused_total",
		"pass-1 NS sets served from a checkpoint instead of the resolver")
	ckptSaves = telemetry.Counter("checkpoint_saves_total",
		"checkpoint snapshots emitted to the configured saver")
	ckptResolverImported = telemetry.Counter("checkpoint_resolver_entries_imported_total",
		"resolver cache entries seeded from a checkpoint on resume")
)

// Encode writes the checkpoint as JSON.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("measure: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint, rejecting unknown fields, version
// mismatches and trailing garbage. Every failure is a hard error: a resume
// either gets the complete recorded state or nothing.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("measure: decode checkpoint: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("measure: checkpoint version %d, this build reads version %d",
			c.Version, CheckpointVersion)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("measure: decode checkpoint: trailing data after checkpoint object")
	}
	return &c, nil
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
// checkpoint against the configured label and fingerprints, answers the
// passes' "is this already done?" queries, accumulates fresh progress, and
// emits snapshots through cfg.OnCheckpoint. All methods are safe for
// concurrent use by the site-pass workers.
type ckptRun struct {
	mu      sync.Mutex
	cp      *Checkpoint
	prior   map[string]*SiteCheckpoint
	fps     map[string]string
	emit    func(*Checkpoint) error
	every   int
	pending int
	res     *resolver.Resolver
}

// newCkptRun builds the recorder, or returns nil when the run is not
// checkpointed. It seeds the resolver cache from the prior checkpoint and
// keeps only prior entries whose fingerprint still matches the universe.
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
		prior: make(map[string]*SiteCheckpoint),
		fps:   cfg.Fingerprints,
		emit:  cfg.OnCheckpoint,
		every: cfg.CheckpointEvery,
		res:   cfg.Resolver,
	}
	if ck.every <= 0 {
		ck.every = nSites / 10
		if ck.every < 200 {
			ck.every = 200
		}
	}
	if prev := cfg.Checkpoint; prev != nil {
		if prev.Label != cfg.CheckpointLabel {
			return nil, fmt.Errorf("measure: checkpoint label %q does not match run label %q",
				prev.Label, cfg.CheckpointLabel)
		}
		for site, sc := range prev.Sites {
			if sc != nil && sc.Fingerprint == ck.fps[site] {
				ck.prior[site] = sc
			}
		}
		ckptResolverImported.Add(int64(cfg.Resolver.ImportCache(prev.Resolver)))
	}
	return ck, nil
}

// The query and emission methods below are no-ops on a nil *ckptRun, so an
// uncheckpointed stream calls them unconditionally.

// priorNS returns a checkpointed pass-1 NS set still valid for site.
func (ck *ckptRun) priorNS(site string) ([]string, bool) {
	if ck == nil {
		return nil, false
	}
	sc := ck.prior[site]
	if sc == nil || !sc.NSDone {
		return nil, false
	}
	ckptNSReused.Inc()
	return sc.NS, true
}

// priorResult returns a checkpointed pass-2 result still valid for site.
func (ck *ckptRun) priorResult(site string) *SiteResult {
	if ck == nil {
		return nil
	}
	sc := ck.prior[site]
	if sc == nil || !sc.Done {
		return nil
	}
	ckptReused.Inc()
	return sc.Result
}

// recordNS records one site's pass-1 outcome.
func (ck *ckptRun) recordNS(site string, ns []string) {
	ck.mu.Lock()
	ck.cp.Sites[site] = &SiteCheckpoint{
		Fingerprint: ck.fps[site],
		NSDone:      true,
		NS:          ns,
	}
	ck.mu.Unlock()
}

// siteDone records one site's completed pass-2 result and emits a snapshot
// every `every` completions. The result is copied so the checkpoint never
// aliases the live Results slice.
func (ck *ckptRun) siteDone(site string, sr *SiteResult) error {
	if ck == nil {
		return nil
	}
	r := *sr
	ck.mu.Lock()
	defer ck.mu.Unlock()
	sc := &SiteCheckpoint{Fingerprint: ck.fps[site], Done: true, Result: &r}
	if old := ck.cp.Sites[site]; old != nil {
		sc.NSDone, sc.NS = old.NSDone, old.NS
	}
	ck.cp.Sites[site] = sc
	ck.pending++
	if ck.pending < ck.every {
		return nil
	}
	ck.pending = 0
	return ck.emitLocked()
}

// emitNow emits a snapshot unconditionally (stage boundaries, end of run).
func (ck *ckptRun) emitNow() error {
	if ck == nil {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.pending = 0
	return ck.emitLocked()
}

func (ck *ckptRun) emitLocked() error {
	if ck.emit == nil {
		return nil
	}
	snap := &Checkpoint{
		Version:  ck.cp.Version,
		Label:    ck.cp.Label,
		Sites:    maps.Clone(ck.cp.Sites),
		Resolver: ck.res.ExportCache(),
	}
	ckptSaves.Inc()
	if err := ck.emit(snap); err != nil {
		return fmt.Errorf("measure: checkpoint save: %w", err)
	}
	return nil
}
