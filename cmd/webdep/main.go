// Command webdep audits the DNS dependencies of an arbitrary ranked site
// list against any DNS server, speaking the real wire protocol — the
// reusable half of the paper's methodology, pointed at whatever authority
// you give it (a production recursive resolver, or cmd/depserver for a
// simulated world).
//
// Usage:
//
//	webdep -server 127.0.0.1:5353 -sites list.csv
//	webdep -server 127.0.0.1:5353 example.com other.org
//
// The site list uses the Alexa CSV format ("rank,domain") or bare domains.
// Output reports each site's dependency class and the aggregated provider
// concentration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"depscope/internal/alexa"
	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("webdep: ")
	var (
		server    = flag.String("server", "127.0.0.1:5353", "DNS server to query (UDP with TCP fallback)")
		sitesFile = flag.String("sites", "", "ranked site list (Alexa CSV or bare domains); site args otherwise")
		threshold = flag.Int("threshold", 50, "concentration threshold for the SOA-equal rule")
		workers   = flag.Int("workers", 16, "concurrent lookups")
		timeout   = flag.Duration("timeout", 60*time.Second, "overall deadline")
		topN      = flag.Int("top", 10, "providers to list in the summary")
	)
	flag.Parse()

	var list alexa.List
	switch {
	case *sitesFile != "":
		f, err := os.Open(*sitesFile)
		if err != nil {
			log.Fatal(err)
		}
		list, err = alexa.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case flag.NArg() > 0:
		var err error
		if list, err = alexa.FromDomains(flag.Args()); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("no sites: pass -sites <file> or domains as arguments")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := audit(ctx, os.Stdout, *server, list, *threshold, *workers, *topN); err != nil {
		log.Fatal(err)
	}
}

// audit runs the DNS-only measurement over the wire and writes the report.
func audit(ctx context.Context, w io.Writer, server string, list alexa.List, threshold, workers, topN int) error {
	r := resolver.New(resolver.NewUDPTransport(server))
	// Live measurements hit plenty of dead domains: collect errors instead
	// of failing the audit on the first one.
	res, err := measure.Run(ctx, list.Domains(), measure.Config{
		Resolver:               r,
		ConcentrationThreshold: threshold,
		Workers:                workers,
		ErrorPolicy:            conc.Collect,
	})
	if err != nil {
		return err
	}

	var private, critical, redundant, unknown int
	usage := make(map[string]int)
	for i := range res.Sites {
		sr := &res.Sites[i]
		switch {
		case sr.DNS.Class == core.ClassUnknown:
			unknown++
		case sr.DNS.Class == core.ClassPrivate:
			private++
		case sr.DNS.Class.Critical():
			critical++
		default:
			redundant++
		}
		for _, p := range sr.DNS.Providers {
			usage[p]++
		}
		fmt.Fprintf(w, "%-40s %-14s %v\n", sr.Site, sr.DNS.Class, sr.DNS.Providers)
	}

	n := len(res.Sites)
	fmt.Fprintf(w, "\n%d sites via %s: %d private, %d critical, %d redundant, %d uncharacterized\n",
		n, server, private, critical, redundant, unknown)

	type pc struct {
		name string
		n    int
	}
	var tops []pc
	for p, c := range usage {
		tops = append(tops, pc{p, c})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].n != tops[j].n {
			return tops[i].n > tops[j].n
		}
		return tops[i].name < tops[j].name
	})
	if len(tops) > topN {
		tops = tops[:topN]
	}
	if len(tops) > 0 {
		fmt.Fprintln(w, "top third-party DNS providers:")
		for _, t := range tops {
			fmt.Fprintf(w, "  %-30s %d sites\n", t.name, t.n)
		}
	}
	stats := res.Diagnostics.Resolver
	fmt.Fprintf(w, "resolver: %d lookups, %d cache hits (%.1f%%)\n",
		stats.Queries, stats.Hits, 100*stats.HitRate())
	if errs := res.Diagnostics.TotalErrors(); errs > 0 {
		fmt.Fprintf(w, "measurement errors: %d (sites kept as uncharacterized)\n", errs)
	}
	return nil
}
