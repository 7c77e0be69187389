// Dynincident: replay the October 2016 Mirai-Dyn outage (§2) against the
// 2016 snapshot. The incident took down Dyn's authoritative DNS; every site
// critically using Dyn went dark, and — the paper's key point — so did the
// customers of CDNs like Fastly that themselves ran on Dyn.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
)

func main() {
	log.SetFlags(0)
	if err := replay(context.Background(), os.Stdout, 8000); err != nil {
		log.Fatal(err)
	}
}

// replay measures the 2016 snapshot of a generated world of the given scale
// and writes the Dyn outage replay to w.
func replay(ctx context.Context, w io.Writer, scale int) error {
	run, err := analysis.Execute(ctx, analysis.Options{
		Scale:     scale,
		Seed:      2016,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2016},
	})
	if err != nil {
		return err
	}
	g := run.Y2016.Graph
	const dyn = "dynect.net"

	fmt.Fprintln(w, "=== October 21, 2016: Dyn goes down ===")
	direct := g.ImpactSet(dyn, core.DirectOnly())
	full := g.ImpactSet(dyn, core.AllIndirect())
	fmt.Fprintf(w, "sites dark via their own Dyn dependency:  %d\n", len(direct))
	fmt.Fprintf(w, "sites dark including provider chains:     %d\n", len(full))

	// Who are the intermediaries? Providers critically running on Dyn.
	fmt.Fprintln(w, "\nproviders that fell with Dyn:")
	names := make([]string, 0, len(g.Providers))
	for name := range g.Providers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := g.Providers[name]
		for _, svc := range core.AllServices {
			d, ok := p.Deps[svc]
			if !ok || !d.Class.Critical() {
				continue
			}
			for _, dep := range d.Providers {
				if dep == dyn {
					fmt.Fprintf(w, "  %-24s (%s of %d sites)\n", name, svc,
						g.Concentration(name, core.DirectOnly()))
				}
			}
		}
	}

	// Collateral victims: dark only because of the chain. The sample lists
	// the best-ranked ones.
	collateral := 0
	var sample []string
	for _, s := range g.Sites {
		if full[s.Name] && !direct[s.Name] {
			collateral++
			if len(sample) < 5 {
				sample = append(sample, s.Name)
			}
		}
	}
	fmt.Fprintf(w, "\ncollateral victims (the Pinterest effect): %d sites, e.g. %v\n", collateral, sample)

	// Sites that used Dyn but stayed up thanks to redundancy — the lesson
	// the paper wants everyone to learn.
	survived := 0
	for _, s := range run.Y2016.Graph.Sites {
		if d := s.Deps[core.DNS]; d.Class.Redundant() {
			for _, p := range d.Providers {
				if p == dyn {
					survived++
				}
			}
		}
	}
	fmt.Fprintf(w, "Dyn customers that stayed up (redundant DNS): %d\n", survived)
	return nil
}
