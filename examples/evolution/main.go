// Evolution: the paper's "have we learned from the Mirai-Dyn incident?"
// question — compare the 2016 and 2020 snapshots and print what changed:
// critical-dependency trends, provider concentration, and Dyn's footprint.
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
	if err := compare(context.Background(), os.Stdout, 8000); err != nil {
		log.Fatal(err)
	}
}

// compare measures both snapshots of a generated world of the given scale
// and writes what changed between them to w.
func compare(ctx context.Context, w io.Writer, scale int) error {
	run, err := analysis.Execute(ctx, analysis.Options{
		Scale: scale,
		Seed:  42,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "=== website -> DNS trends (Table 3) ===")
	rows := analysis.Table3(run)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  pvt->3rd %5.1f%%  3rd->pvt %5.1f%%  critical delta %+5.1f%%\n",
			r.Label, r.PvtToSingle, r.SingleToPvt, r.CriticalDelta)
	}

	fmt.Fprintln(w, "\n=== provider concentration (Figure 6) ===")
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		s := analysis.Figure6(run, svc)
		fmt.Fprintf(w, "%-4s 2016: %4d providers for 80%% coverage | 2020: %4d\n",
			svc, s[0].ProvidersFor80, s[1].ProvidersFor80)
	}

	// Dyn itself: the paper observes its concentration shrank from 2% to
	// 0.6% after the incident, while its top-100 customers keep it mostly
	// as part of redundant setups.
	fmt.Fprintln(w, "\n=== Dyn's footprint ===")
	for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
		c := sd.Graph.Concentration("dynect.net", core.DirectOnly())
		i := sd.Graph.Impact("dynect.net", core.DirectOnly())
		fmt.Fprintf(w, "%s: used by %d sites, critical for %d\n", sd.Snapshot, c, i)
	}

	fmt.Fprintln(w, "\n=== verdict ===")
	if d := rows[3].CriticalDelta; d > 0 {
		fmt.Fprintf(w, "critical DNS dependency grew %.1f points since the Dyn incident -\n", d)
		fmt.Fprintln(w, "the ecosystem at large has not acted on the lesson (paper Obs 2).")
	} else {
		fmt.Fprintln(w, "critical DNS dependency shrank - the lesson was learned.")
	}
	return nil
}
