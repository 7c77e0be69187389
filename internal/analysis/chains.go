package analysis

import (
	"fmt"
	"io"

	"depscope/internal/chain"
)

// ChainSummary computes the chain analysis for one snapshot of the run,
// preferring 2020 (the headline dataset). It returns nil when the run was
// measured without chains — the report section and /v1/chains 404 key off
// that.
func ChainSummary(run *Run, topN int) *chain.Summary {
	sd := run.Y2020
	if sd == nil {
		sd = run.Y2016
	}
	if sd == nil {
		return nil
	}
	hasChains := false
	for _, s := range sd.Graph.Sites {
		if len(s.Chains) > 0 {
			hasChains = true
			break
		}
	}
	if !hasChains {
		return nil
	}
	return chain.Summarize(sd.Graph, topN)
}

// RenderChains prints the implicit-trust section: run-level chain shape,
// the chain-depth histogram, the top implicitly-trusted vendors, and the
// direct-vs-implicit concentration comparison for every direct service.
// It prints nothing for chains-off runs, so the full report stays
// byte-identical to the pre-chain output.
func RenderChains(w io.Writer, run *Run) {
	s := ChainSummary(run, 5)
	if s == nil {
		return
	}
	header(w, "Implicit trust via resource chains (2020)")
	fmt.Fprintf(w, "sites with chain edges  %d of %d\n", s.SitesWithChains, s.Sites)
	fmt.Fprintf(w, "chain edges             %d across %d vendors\n", s.Edges, s.Vendors)
	fmt.Fprintf(w, "inclusion depth         max %d, mean %.2f\n", s.MaxDepth, s.MeanDepth)

	fmt.Fprintf(w, "\n%-8s %8s\n", "depth", "edges")
	for _, b := range s.DepthHist {
		fmt.Fprintf(w, "%-8d %8d\n", b.Depth, b.Edges)
	}

	fmt.Fprintf(w, "\n%-24s %8s %8s %8s %10s %6s %6s\n",
		"implicitly trusted", "conc", "impact", "sites", "weighted", "dmin", "dmax")
	for _, v := range s.TopImplicit {
		fmt.Fprintf(w, "%-24s %8s %8s %8d %10.1f %6d %6d\n",
			v.Provider, pct(frac(v.Concentration, s.Sites)), pct(frac(v.Impact, s.Sites)),
			v.Sites, v.Weighted, v.MinDepth, v.MaxDepth)
	}

	fmt.Fprintf(w, "\n%-24s %-5s %10s %10s %10s %10s\n",
		"provider", "svc", "C direct", "C implicit", "I direct", "I implicit")
	for _, r := range s.Comparison {
		fmt.Fprintf(w, "%-24s %-5s %10s %10s %10s %10s\n",
			r.Provider, r.Service,
			pct(frac(r.DirectConcentration, s.Sites)), pct(frac(r.ImplicitConcentration, s.Sites)),
			pct(frac(r.DirectImpact, s.Sites)), pct(frac(r.ImplicitImpact, s.Sites)))
	}
}
