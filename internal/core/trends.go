package core

// Evolution analysis: site-level transition tables between two snapshots
// (the paper's Tables 3–5) and provider-level transitions (Tables 7–9).

// TrendRow is one band column of a website-trend table, in percent of the
// band's comparison population.
type TrendRow struct {
	Label string
	// DNS/CDN mode transitions.
	PvtToSingle   float64
	SingleToPvt   float64
	RedToNoRed    float64
	NoRedToRed    float64
	CriticalDelta float64
}

// SiteClasses maps site name → measured class for one service in one
// snapshot; sites absent from the map did not consume the service.
type SiteClasses map[string]DepClass

// ModeTrends computes the Table 3/4-style per-band transition rates between
// two snapshots. ranks maps site → 2016 rank (the comparison uses the 2016
// list per §3); scale is the list length. Only sites present and
// characterized in both snapshots count.
func ModeTrends(old, new SiteClasses, ranks map[string]int, scale int) [4]TrendRow {
	var rows [4]TrendRow
	var totals [4]int
	type delta struct {
		pvtToSingle, singleToPvt, redToNoRed, noRedToRed, critOld, critNew [4]int
	}
	var d delta
	for site, oc := range old {
		nc, ok := new[site]
		if !ok || oc == ClassUnknown || nc == ClassUnknown || oc == ClassNone || nc == ClassNone {
			continue
		}
		rank, ok := ranks[site]
		if !ok {
			continue
		}
		b := BandOf(rank, scale)
		for i := b; i < 4; i++ {
			totals[i]++
			if oc == ClassPrivate && nc == ClassSingleThird {
				d.pvtToSingle[i]++
			}
			if oc == ClassSingleThird && nc == ClassPrivate {
				d.singleToPvt[i]++
			}
			if oc.Redundant() && nc == ClassSingleThird {
				d.redToNoRed[i]++
			}
			if oc == ClassSingleThird && nc.Redundant() {
				d.noRedToRed[i]++
			}
			if oc.Critical() {
				d.critOld[i]++
			}
			if nc.Critical() {
				d.critNew[i]++
			}
		}
	}
	for i := range rows {
		rows[i].Label = BandLabel(i, scale)
		if totals[i] == 0 {
			continue
		}
		f := 100.0 / float64(totals[i])
		rows[i].PvtToSingle = float64(d.pvtToSingle[i]) * f
		rows[i].SingleToPvt = float64(d.singleToPvt[i]) * f
		rows[i].RedToNoRed = float64(d.redToNoRed[i]) * f
		rows[i].NoRedToRed = float64(d.noRedToRed[i]) * f
		rows[i].CriticalDelta = float64(d.critNew[i]-d.critOld[i]) * f
	}
	return rows
}

// StaplingTrendRow is one band of the Table 5 stapling-transition table.
type StaplingTrendRow struct {
	Label         string
	StapleToNo    float64
	NoToStaple    float64
	CriticalDelta float64
}

// StaplingTrends computes Table 5: transitions among sites supporting HTTPS
// in both snapshots, in percent. stapledOld/New report stapling; membership
// in the maps means the site supported HTTPS in that snapshot.
func StaplingTrends(stapledOld, stapledNew map[string]bool, ranks map[string]int, scale int) [4]StaplingTrendRow {
	var rows [4]StaplingTrendRow
	var totals, toNo, toYes [4]int
	for site, so := range stapledOld {
		sn, ok := stapledNew[site]
		if !ok {
			continue
		}
		rank, ok := ranks[site]
		if !ok {
			continue
		}
		b := BandOf(rank, scale)
		for i := b; i < 4; i++ {
			totals[i]++
			if so && !sn {
				toNo[i]++
			}
			if !so && sn {
				toYes[i]++
			}
		}
	}
	for i := range rows {
		rows[i].Label = BandLabel(i, scale)
		if totals[i] == 0 {
			continue
		}
		f := 100.0 / float64(totals[i])
		rows[i].StapleToNo = float64(toNo[i]) * f
		rows[i].NoToStaple = float64(toYes[i]) * f
		// Losing the staple makes a site critical; gaining it removes the
		// criticality (for third-party-CA sites).
		rows[i].CriticalDelta = float64(toNo[i]-toYes[i]) * f
	}
	return rows
}

// ProviderTrend tallies the Tables 7–9 provider-level transitions between
// snapshots for one dependency type (e.g. CA→DNS).
type ProviderTrend struct {
	PvtToSingle   int
	SingleToPvt   int
	RedToNoRed    int
	NoRedToRed    int
	NoneToThird   int
	ThirdToNone   int
	CriticalDelta int
	Total         int
}

// ProviderTrends compares provider dependency classes across snapshots.
// Only providers present in both maps count.
func ProviderTrends(old, new map[string]DepClass) ProviderTrend {
	var t ProviderTrend
	for name, oc := range old {
		nc, ok := new[name]
		if !ok {
			continue
		}
		t.Total++
		if oc == ClassPrivate && nc == ClassSingleThird {
			t.PvtToSingle++
		}
		if oc == ClassSingleThird && nc == ClassPrivate {
			t.SingleToPvt++
		}
		if oc.Redundant() && nc == ClassSingleThird {
			t.RedToNoRed++
		}
		if oc == ClassSingleThird && nc.Redundant() {
			t.NoRedToRed++
		}
		if oc == ClassNone && nc.UsesThird() {
			t.NoneToThird++
		}
		if oc.UsesThird() && nc == ClassNone {
			t.ThirdToNone++
		}
		if nc.Critical() {
			t.CriticalDelta++
		}
		if oc.Critical() {
			t.CriticalDelta--
		}
	}
	return t
}
