package analysis

import (
	"context"
	"fmt"
	"io"

	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
)

// Ablation experiments: quantify what each ingredient of the §3.1 combined
// heuristic contributes, and how sensitive the pipeline is to the
// concentration threshold the paper sets at 50.

// AblationRow is one classifier variant's outcome.
type AblationRow struct {
	Variant string
	// CharacterizedFrac is the share of sites any heuristic could classify.
	CharacterizedFrac float64
	// ThirdFrac is the third-party share among characterized sites.
	ThirdFrac float64
	// Accuracy is the site-class accuracy against ground truth, over sites
	// the full methodology characterizes.
	Accuracy float64
}

// HeuristicAblation re-runs the DNS classification with individual rules
// disabled. The full pipeline is the baseline; "-san", "-soa" and
// "-concentration" each remove one rule.
func HeuristicAblation(ctx context.Context, run *Run) ([]AblationRow, error) {
	variants := []struct {
		name   string
		adjust func(*measure.Config)
	}{
		{"full heuristic", func(*measure.Config) {}},
		{"without SAN rule", func(c *measure.Config) { c.DisableSAN = true }},
		{"without SOA rule", func(c *measure.Config) { c.DisableSOA = true }},
		{"without concentration rule", func(c *measure.Config) { c.DisableConcentration = true }},
	}

	truth := make(map[string]ecosystem.SiteSnapshot)
	for _, s := range run.Universe.List(ecosystem.Y2020) {
		if s.Snap[ecosystem.Y2020].Exists {
			truth[s.Domain] = s.Snap[ecosystem.Y2020]
		}
	}
	// The run's world has released its landing pages; only DNS classes are
	// read here, and no page affects them.
	world := run.Y2020.World

	var out []AblationRow
	for _, v := range variants {
		cfg := measureConfig(world, Options{})
		v.adjust(&cfg)
		res, err := measure.Run(ctx, world.Sites, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		row := AblationRow{Variant: v.name}
		var characterized, third, scored, correct int
		for i := range res.Sites {
			sr := &res.Sites[i]
			if sr.DNS.Class != core.ClassUnknown {
				characterized++
				if sr.DNS.Class.UsesThird() {
					third++
				}
			}
			ss := truth[sr.Site]
			if ss.DNSTrap == ecosystem.TrapUnknown {
				continue // the full methodology leaves these out
			}
			scored++
			if sr.DNS.Class == expectedClass(ss) {
				correct++
			}
		}
		row.CharacterizedFrac = frac(characterized, len(res.Sites))
		row.ThirdFrac = frac(third, characterized)
		row.Accuracy = frac(correct, scored)
		out = append(out, row)
	}
	return out, nil
}

func expectedClass(ss ecosystem.SiteSnapshot) core.DepClass {
	switch ss.DNSMode {
	case ecosystem.DepPrivate:
		return core.ClassPrivate
	case ecosystem.DepSingleThird:
		return core.ClassSingleThird
	case ecosystem.DepMultiThird:
		return core.ClassMultiThird
	case ecosystem.DepPrivatePlusThird:
		return core.ClassPrivatePlusThird
	}
	return core.ClassNone
}

// ThresholdRow is one concentration-threshold setting's outcome.
type ThresholdRow struct {
	Threshold         int
	CharacterizedFrac float64
	ThirdFrac         float64
}

// ThresholdSweep measures how the §3.1 concentration cutoff (the paper's
// "e.g. > 50") moves the uncharacterized mass: too low and trap providers
// get misclassified as third parties; too high and big-provider customers
// with provider-pointing SOAs become unmeasurable.
func ThresholdSweep(ctx context.Context, run *Run, thresholds []int) ([]ThresholdRow, error) {
	world := run.Y2020.World // pageless, as in HeuristicAblation
	var out []ThresholdRow
	for _, th := range thresholds {
		res, err := measure.Run(ctx, world.Sites, measureConfig(world, Options{ConcentrationThreshold: th}))
		if err != nil {
			return nil, err
		}
		var characterized, third int
		for i := range res.Sites {
			if res.Sites[i].DNS.Class != core.ClassUnknown {
				characterized++
				if res.Sites[i].DNS.Class.UsesThird() {
					third++
				}
			}
		}
		out = append(out, ThresholdRow{
			Threshold:         th,
			CharacterizedFrac: frac(characterized, len(res.Sites)),
			ThirdFrac:         frac(third, characterized),
		})
	}
	return out, nil
}

// RenderAblation prints both ablation experiments.
func RenderAblation(w io.Writer, run *Run) error {
	ctx := context.Background()
	rows, err := HeuristicAblation(ctx, run)
	if err != nil {
		return err
	}
	header(w, "Ablation: contribution of each classification rule (DNS, 2020)")
	fmt.Fprintf(w, "%-30s %14s %12s %10s\n", "variant", "characterized", "third-party", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %14s %12s %10s\n", r.Variant,
			pct(r.CharacterizedFrac), pct(r.ThirdFrac), pct(r.Accuracy))
	}

	sweep, err := ThresholdSweep(ctx, run, []int{5, 10, 25, 50, 100, 200})
	if err != nil {
		return err
	}
	header(w, "Ablation: concentration-threshold sensitivity (paper uses 50)")
	fmt.Fprintf(w, "%-10s %14s %12s\n", "threshold", "characterized", "third-party")
	for _, r := range sweep {
		fmt.Fprintf(w, "%-10d %14s %12s\n", r.Threshold, pct(r.CharacterizedFrac), pct(r.ThirdFrac))
	}
	return nil
}
