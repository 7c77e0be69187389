// Quickstart: generate a small synthetic Internet, run the measurement
// pipeline, and print the headline dependency statistics — the minimal
// end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"depscope/internal/analysis"
	"depscope/internal/core"
)

func main() {
	log.SetFlags(0)
	if err := quickstart(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// quickstart measures a 5K-site generated world and writes the headline
// statistics to w.
func quickstart(ctx context.Context, w io.Writer) error {
	// 1. Generate, materialize and measure both snapshots at a small scale.
	run, err := analysis.Execute(ctx, analysis.Options{
		Scale: 5000,
		Seed:  1,
	})
	if err != nil {
		return err
	}

	// 2. Headline numbers (the paper's abstract): how many sites critically
	// depend on a third party for DNS, CDN or CA?
	f2 := analysis.Figure2(run)
	fmt.Fprintf(w, "third-party DNS use:        %.1f%% of characterized sites\n", 100*f2[3].ThirdParty())
	fmt.Fprintf(w, "critical DNS dependency:    %.1f%%\n", 100*f2[3].Critical())

	f4 := analysis.Figure4(run)
	fmt.Fprintf(w, "HTTPS adoption:             %.1f%% of sites\n", 100*f4[3].HTTPSFrac)
	fmt.Fprintf(w, "third-party CA use:         %.1f%% of HTTPS sites\n", 100*f4[3].ThirdCAFrac)

	// 3. Who are the single points of failure?
	fmt.Fprintln(w, "\ntop DNS providers (concentration / impact):")
	for _, p := range analysis.Figure5(run, core.DNS, 3) {
		fmt.Fprintf(w, "  %-20s %5.1f%% / %5.1f%%\n", p.Name, 100*p.Concentration, 100*p.Impact)
	}

	// 4. The hidden amplification: DNSMadeEasy looks tiny until the CA->DNS
	// edges are considered (the paper's DigiCert chain).
	for _, row := range analysis.Figure7(run, 5) {
		if row.Name == "dnsmadeeasy.com" {
			fmt.Fprintf(w, "\nDNSMadeEasy impact: %.1f%% direct -> %.1f%% via CA dependencies (%.0fx)\n",
				100*row.DirectImpact, 100*row.IndirectImpact,
				row.IndirectImpact/row.DirectImpact)
		}
	}
	return nil
}
