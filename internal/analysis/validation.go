package analysis

import (
	"context"
	"fmt"
	"io"

	"depscope/internal/ecosystem"
	"depscope/internal/measure"
)

// The §3 validation experiment as a first-class artifact: classify every
// characterized (site, nameserver) pair with the combined heuristic and the
// two strawmen, then score them against the generator's ground truth — the
// automated version of the paper's "random sample of 100 websites, manually
// verified" methodology, run over the whole population.

// ValidationReport holds per-classifier accuracies plus the paper's §3.1
// pair accounting.
type ValidationReport struct {
	Pairs            int
	CombinedAccuracy float64
	TLDAccuracy      float64
	SOAAccuracy      float64
	// PairStats is the §3.1 accounting over all pairs (including traps).
	PairStats measure.PairStats
}

// Validate scores the DNS classifiers of the 2020 snapshot against ground
// truth. Sites the methodology leaves uncharacterized are excluded from the
// accuracy sample (as in the paper), but appear in PairStats.
func Validate(ctx context.Context, run *Run) (ValidationReport, error) {
	sd := run.Y2020
	rep := ValidationReport{PairStats: sd.Results.PairStats}

	truth := make(map[string]ecosystem.SiteSnapshot)
	for _, s := range run.Universe.List(ecosystem.Y2020) {
		if s.Snap[ecosystem.Y2020].Exists {
			truth[s.Domain] = s.Snap[ecosystem.Y2020]
		}
	}
	bl := measure.NewBaselines(measureConfig(sd.World, Options{}))

	var pairs, combinedOK, tldOK, soaOK int
	for i := range sd.Results.Sites {
		sr := &sd.Results.Sites[i]
		ss, ok := truth[sr.Site]
		if !ok || ss.DNSTrap == ecosystem.TrapUnknown {
			continue
		}
		pureThird := ss.DNSMode.UsesThird() && ss.DNSMode != ecosystem.DepPrivatePlusThird
		for _, pair := range sr.DNS.Pairs {
			isPrivate := !pureThird
			if ss.DNSMode == ecosystem.DepPrivatePlusThird {
				// Mixed sites: the pair is private iff the host is in-domain.
				isPrivate = measure.BaselineTLD(sr.Site, pair.Host) == measure.Private
			}
			want := measure.Third
			if isPrivate {
				want = measure.Private
			}
			pairs++
			if pair.Class == want {
				combinedOK++
			}
			if bl.TLD(sr.Site, pair.Host) == want {
				tldOK++
			}
			got, err := bl.SOA(ctx, sr.Site, pair.Host)
			if err != nil {
				return rep, err
			}
			if got == want {
				soaOK++
			}
		}
	}
	rep.Pairs = pairs
	if pairs > 0 {
		rep.CombinedAccuracy = float64(combinedOK) / float64(pairs)
		rep.TLDAccuracy = float64(tldOK) / float64(pairs)
		rep.SOAAccuracy = float64(soaOK) / float64(pairs)
	}
	return rep, nil
}

// RenderValidation prints the §3 validation experiment.
func RenderValidation(w io.Writer, run *Run) error {
	rep, err := Validate(context.Background(), run)
	if err != nil {
		return err
	}
	header(w, "Validation: (site, nameserver) classification accuracy (paper §3.1)")
	fmt.Fprintf(w, "distinct pairs observed:    %d (%.1f%% uncharacterized; paper: 13.5%%)\n",
		rep.PairStats.Total, 100*rep.PairStats.UncharacterizedFrac())
	fmt.Fprintf(w, "combined heuristic:         %.1f%%  (paper: 100%%)\n", 100*rep.CombinedAccuracy)
	fmt.Fprintf(w, "TLD matching only:          %.1f%%  (paper:  97%%)\n", 100*rep.TLDAccuracy)
	fmt.Fprintf(w, "SOA matching only:          %.1f%%  (paper:  56%%)\n", 100*rep.SOAAccuracy)
	fmt.Fprintln(w, "rule firing counts over all pairs:")
	for _, rule := range []string{"tld", "san", "soa", "concentration"} {
		fmt.Fprintf(w, "  %-14s %d\n", rule, run.Y2020.Results.EvidenceCounts[rule])
	}
	return nil
}
