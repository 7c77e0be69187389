package core

import (
	"sort"
	"strconv"
)

// BandStats aggregates site dependency classes for one service over a rank
// band (the paper's Figures 2–4 series).
type BandStats struct {
	Band  int
	Label string
	// Total is the number of sites consuming the service in the band
	// (characterized sites for DNS, CDN users for CDN, HTTPS sites for CA).
	Total int
	// Unknown counts uncharacterized sites (excluded from Total).
	Unknown int
	// Counts per class.
	Private, Single, Multi, Mixed int
}

// ThirdParty returns the fraction of sites using any third party.
func (b BandStats) ThirdParty() float64 {
	return frac(b.Single+b.Multi+b.Mixed, b.Total)
}

// Critical returns the fraction critically dependent.
func (b BandStats) Critical() float64 { return frac(b.Single, b.Total) }

// MultiThird returns the fraction using multiple third parties.
func (b BandStats) MultiThird() float64 { return frac(b.Multi, b.Total) }

// MixedFrac returns the fraction using private plus third party.
func (b BandStats) MixedFrac() float64 { return frac(b.Mixed, b.Total) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Rank bands generalise the paper's k=100, 1K, 10K, 100K to fractions of
// the list length N: band 0 holds ranks (0, N/1000], band 1 (N/1000,
// N/100], band 2 (N/100, N/10], band 3 (N/10, N]. The generator, the figure
// and trend tables and the incident engine all band through BandOf.

// BandOf returns the band index of rank within a list of length scale.
func BandOf(rank, scale int) int {
	switch {
	case rank*1000 <= scale:
		return 0
	case rank*100 <= scale:
		return 1
	case rank*10 <= scale:
		return 2
	default:
		return 3
	}
}

// SiteBands is a graph's rank band column: the BandOf band of every site,
// in Sites order, within a list as long as Sites, and the number of sites
// in each band.
type SiteBands struct {
	Of    []uint8
	Total [4]int
}

// Bands returns the graph's rank band column. It is built on first use and
// shared: the incident reports band every stage of every scenario.
func (g *Graph) Bands() *SiteBands {
	g.bandOnce.Do(func() {
		g.bands.Of = make([]uint8, len(g.Sites))
		for i, s := range g.Sites {
			b := BandOf(s.Rank, len(g.Sites))
			g.bands.Of[i] = uint8(b)
			g.bands.Total[b]++
		}
	})
	return &g.bands
}

// BandTop names band's rank cutoff in a list of length scale: "25",
// "2500", "2K". The K suffix is written only for whole thousands.
func BandTop(band, scale int) string {
	k := scale / [4]int{1000, 100, 10, 1}[band]
	if k >= 1000 && k%1000 == 0 {
		return strconv.Itoa(k/1000) + "K"
	}
	return strconv.Itoa(k)
}

// BandLabel names a band for the figure and trend tables: "k=25", "k=2K".
func BandLabel(band, scale int) string { return "k=" + BandTop(band, scale) }

// ServiceBands computes cumulative band statistics for a service: band i
// covers ranks 1..scale/10^(3-i), matching the paper's "top-k" series where
// each k includes all more-popular sites.
func ServiceBands(g *Graph, svc Service, scale int) [4]BandStats {
	var out [4]BandStats
	for i := range out {
		out[i] = BandStats{Band: i, Label: BandLabel(i, scale)}
	}
	for _, s := range g.Sites {
		d, ok := s.Deps[svc]
		if !ok || d.Class == ClassNone {
			continue
		}
		b := BandOf(s.Rank, scale)
		// Cumulative: a rank in band b contributes to bands b..3.
		for i := b; i < 4; i++ {
			if d.Class == ClassUnknown {
				out[i].Unknown++
				continue
			}
			out[i].Total++
			switch d.Class {
			case ClassPrivate:
				out[i].Private++
			case ClassSingleThird:
				out[i].Single++
			case ClassMultiThird:
				out[i].Multi++
			case ClassPrivatePlusThird:
				out[i].Mixed++
			}
		}
	}
	return out
}

// CDFPoint is one step of the provider-concentration CDF (Fig 6).
type CDFPoint struct {
	Providers int     // number of top providers considered
	Coverage  float64 // fraction of service-consuming sites covered
}

// ConcentrationCDF sorts providers of svc by direct site coverage and
// returns the cumulative distinct-site coverage curve, normalized by the
// number of sites using any third-party provider of svc. A site using a
// provider twice in one arrangement counts twice toward its coverage rank.
func ConcentrationCDF(g *Graph, svc Service) []CDFPoint {
	type pc struct {
		name  string
		users []int32 // Graph.Sites indices
	}
	byName := make(map[string]int) // name → index in list
	var list []pc
	denom := 0 // the sites with a provider, all covered by the full list
	for i, s := range g.Sites {
		d := s.Deps[svc]
		if !d.Class.UsesThird() || len(d.Providers) == 0 {
			continue
		}
		denom++
		for _, name := range d.Providers {
			j, ok := byName[name]
			if !ok {
				j = len(list)
				byName[name] = j
				list = append(list, pc{name: name})
			}
			list[j].users = append(list[j].users, int32(i))
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if len(list[i].users) != len(list[j].users) {
			return len(list[i].users) > len(list[j].users)
		}
		return list[i].name < list[j].name
	})
	covered := make([]bool, len(g.Sites))
	n := 0
	out := make([]CDFPoint, 0, len(list))
	for i, p := range list {
		for _, si := range p.users {
			if !covered[si] {
				covered[si] = true
				n++
			}
		}
		out = append(out, CDFPoint{Providers: i + 1, Coverage: frac(n, denom)})
	}
	return out
}

// ProvidersForCoverage returns how many top providers are needed to cover
// the given fraction of third-party-using sites (Fig 6: "54 providers serve
// 80% of the websites in 2020 vs 2705 in 2016"). Returns 0 when the curve
// never reaches the target.
func ProvidersForCoverage(cdf []CDFPoint, target float64) int {
	for _, p := range cdf {
		if p.Coverage >= target {
			return p.Providers
		}
	}
	return 0
}

// DistinctProviders counts providers with at least one site using them as
// a third party for svc, read off the direct-user table's counts.
func DistinctProviders(g *Graph, svc Service) int {
	_, users := g.tableUsers()
	n := 0
	for u := range users {
		if users[u].usedFor(svc) {
			n++
		}
	}
	return n
}
