package ecosystem

import (
	"fmt"
	"math/rand"
	"sort"

	"depscope/internal/core"
)

// Options configures generation.
type Options struct {
	// Scale is the length of each snapshot's ranked list (the paper: 100K).
	Scale int
	// Seed drives all pseudo-random choices; equal seeds reproduce the
	// universe exactly.
	Seed int64
	// Calibration overrides the default paper-calibrated tables.
	Calibration *Calibration
}

// Generate builds the synthetic universe: the ranked lists of both
// snapshots, ground-truth site configurations and the provider population.
func Generate(opts Options) (*Universe, error) {
	if opts.Scale <= 0 {
		return nil, fmt.Errorf("ecosystem: scale must be positive, got %d", opts.Scale)
	}
	cal := opts.Calibration
	if cal == nil {
		cal = DefaultCalibration()
	}
	g := &generator{
		cal:   cal,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		scale: opts.Scale,
		u: &Universe{
			Scale:     opts.Scale,
			Seed:      opts.Seed,
			Providers: make(map[string]*Provider),
		},
	}
	g.buildProviderUniverse()
	g.buildSites()
	g.assignSnapshot(Y2020)
	g.deriveSnapshot2016()
	return g.u, nil
}

type generator struct {
	cal   *Calibration
	rng   *rand.Rand
	scale int
	u     *Universe

	// trapDNSProviders are the small "unknown" DNS providers behind the
	// uncharacterized cohort; trapIdx rotates through them across bands and
	// snapshots so no single one crosses the concentration threshold.
	trapDNSProviders []string
	trapIdx          int
}

func (g *generator) addProvider(p *Provider) {
	if _, dup := g.u.Providers[p.Name]; dup {
		panic("ecosystem: duplicate provider " + p.Name)
	}
	g.u.Providers[p.Name] = p
	g.u.providerOrder = append(g.u.providerOrder, p.Name)
}

// buildProviderUniverse installs the named providers plus procedural tails.
func (g *generator) buildProviderUniverse() {
	for _, p := range buildProviders() {
		g.addProvider(p)
	}

	// DNS tail: enough providers for the flatter 2016 CDF (Fig 6a). The
	// 2020 tail is the first TailProviders(2020) of them. Scale the counts
	// down for small universes so each tail provider keeps >=1 site.
	tail16 := scaledTail(g.cal.DNS[Y2016].TailProviders, g.scale)
	tail20 := scaledTail(g.cal.DNS[Y2020].TailProviders, g.scale)
	for i := 0; i < maxInt(tail16, tail20); i++ {
		p := tailProvider(SvcDNS, i, nil)
		p.Exists2016 = i < tail16
		p.Exists2020 = i < tail20
		g.addProvider(p)
	}

	// Uncharacterizable trap providers: small (concentration < 50), with
	// site SOAs pointing at them, so every heuristic is defeated.
	trapSites := int(float64(g.scale) * g.cal.DNS[Y2020].UncharacterizedFrac)
	trapCount := trapSites/30 + 1
	for i := 0; i < trapCount; i++ {
		p := newDNSProvider(fmt.Sprintf("Unknown DNS %04d", i), fmt.Sprintf("opaque-dns-%04d.net", i))
		g.addProvider(p)
		g.trapDNSProviders = append(g.trapDNSProviders, p.Name)
	}

	// CDN tail up to the paper's distinct-CDN totals (47 in 2016, 86 in
	// 2020), with DNS arrangements filling the Table 6 counts:
	// 2020: 31/86 third-party DNS, 15 critical (7 exclusively AWS DNS).
	cdnTail16 := scaledTail(g.cal.CDN[Y2016].TailProviders, g.scale)
	cdnTail20 := scaledTail(g.cal.CDN[Y2020].TailProviders, g.scale)
	total := maxInt(cdnTail16, cdnTail20)
	// The third-party-DNS tail CDNs are mostly 2020 newcomers; the CDNs
	// observed in both snapshots keep a stable arrangement, so the Table 9
	// provider trends stay near the paper's (the named CDNs carry the real
	// transitions).
	exists16 := func(i int) bool {
		switch {
		case i == 0 || i == 1: // two stable AWS-critical tail CDNs
			return true
		case i == 14 || i == 15: // two stable redundant tail CDNs
			return true
		case i >= 25: // the private-DNS tail
			return i-25+4 < cdnTail16
		}
		return false
	}
	for i := 0; i < total; i++ {
		deps := map[Snapshot]ProviderDNS{Y2016: pvt(), Y2020: pvt()}
		switch {
		case i < 7: // exclusively AWS DNS, critical (paper §5.3)
			deps[Y2020] = third("AWS DNS")
			deps[Y2016] = third("AWS DNS")
		case i < 14: // critical on other providers
			alt := []string{"DNSMadeEasy", "GoDaddy", "Cloudflare", "NS1", "UltraDNS", "Dyn", "Gandi"}[i-7]
			deps[Y2020] = third(alt)
		case i < 25: // redundant third (some also on AWS -> 16 AWS users)
			if i < 18 {
				deps[Y2020] = third("AWS DNS", "NS1")
				deps[Y2016] = third("AWS DNS", "NS1")
			} else {
				deps[Y2020] = mixed("Cloudflare")
			}
		}
		p := tailProvider(SvcCDN, i, deps)
		p.Exists2016 = exists16(i)
		p.Exists2020 = i < cdnTail20
		if !p.Exists2016 && !p.Exists2020 {
			continue
		}
		g.addProvider(p)
	}

	// CA tail up to the distinct-CA totals (70 in 2016, 59 in 2020) with
	// Table 6 / Table 7 arrangements: 2020: 27/59 third DNS (18 critical),
	// 21 third-party-CDN users.
	caNamed16, caNamed20 := g.countService(SvcCA)
	caTail16 := maxInt(0, scaledTotal(g.cal.CA[Y2016].TailProviders+caNamed16, g.scale)-caNamed16)
	caTail20 := maxInt(0, scaledTotal(g.cal.CA[Y2020].TailProviders+caNamed20, g.scale)-caNamed20)
	totalCA := maxInt(caTail16, caTail20)
	for i := 0; i < totalCA; i++ {
		dns := map[Snapshot]ProviderDNS{Y2016: pvt(), Y2020: pvt()}
		cdn := map[Snapshot]ProviderCDN{Y2016: {}, Y2020: {}}
		switch {
		case i == 0: // one more critical to reach 18
			dns[Y2020] = third("AWS DNS")
			dns[Y2016] = third("AWS DNS")
		case i < 10: // nine redundant third-party DNS users (Table 6)
			dns[Y2020] = third("AWS DNS", "Cloudflare")
			if i < 8 {
				dns[Y2016] = third("AWS DNS", "Cloudflare")
			}
		case i < 13: // 2016-only critical CAs beyond the named ones
			dns[Y2016] = third("UltraDNS")
		}
		if i == 13 || i == 14 { // two stable third-CDN tail CAs (→ 21 total)
			cdn[Y2020] = ProviderCDN{Third: []string{"Akamai"}}
			cdn[Y2016] = ProviderCDN{Third: []string{"Akamai"}}
		}
		if i == 15 { // one more private-CDN CA (→ 3 private users)
			cdn[Y2020] = ProviderCDN{Private: true}
			cdn[Y2016] = ProviderCDN{Private: true}
		}
		if i == 16 || i == 17 { // CAs that dropped their CDN (Table 8)
			cdn[Y2016] = ProviderCDN{Third: []string{"EdgeCast"}}
		}
		p := tailProvider(SvcCA, i, dns)
		p.CDNDeps = cdn
		p.Exists2016 = i < caTail16
		p.Exists2020 = i < caTail20
		if !p.Exists2016 && !p.Exists2020 {
			continue
		}
		g.addProvider(p)
	}
}

// countService counts named providers per snapshot.
func (g *generator) countService(svc Service) (n16, n20 int) {
	for _, name := range g.u.providerOrder {
		p := g.u.Providers[name]
		if p.Service != svc {
			continue
		}
		if p.Exists2016 {
			n16++
		}
		if p.Exists2020 {
			n20++
		}
	}
	return n16, n20
}

// scaledTail shrinks a tail-provider count for small universes: roughly one
// tail provider per 20 sites, capped at the full-scale count.
func scaledTail(full, scale int) int {
	max := scale / 20
	if max < 10 {
		max = 10
	}
	if full > max {
		return max
	}
	return full
}

// scaledTotal shrinks an absolute provider-population target for small
// universes (totals like "59 CAs" stay as-is above 10K sites).
func scaledTotal(full, scale int) int {
	if scale >= 10000 {
		return full
	}
	v := full * scale / 10000
	if v < 10 {
		v = 10
	}
	if v > full {
		v = full
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// buildSites creates the ranked lists: one shared population plus 2016-only
// (dead by 2020) and 2020-only (new) sites at the same ranks.
func (g *generator) buildSites() {
	tlds := []string{"com", "com", "com", "net", "org", "io", "co", "de", "fr", "jp", "com.br", "co.uk", "ru", "in"}
	dead := g.cal.Trans.DeadFrac
	g.u.list2016 = make([]*Site, g.scale)
	g.u.list2020 = make([]*Site, g.scale)
	for i := 0; i < g.scale; i++ {
		rank := i + 1
		tld := tlds[g.rng.Intn(len(tlds))]
		if g.rng.Float64() < dead {
			// Rank slot churns: a 2016-only site and a 2020-only site.
			old := &Site{Domain: fmt.Sprintf("w%06d-old.%s", rank, tld), Rank2016: rank}
			old.Snap[Y2016].Exists = true
			neu := &Site{Domain: fmt.Sprintf("w%06d-new.%s", rank, tld), Rank2020: rank}
			neu.Snap[Y2020].Exists = true
			g.u.Sites = append(g.u.Sites, old, neu)
			g.u.list2016[i] = old
			g.u.list2020[i] = neu
			continue
		}
		s := &Site{Domain: fmt.Sprintf("w%06d.%s", rank, tld), Rank2016: rank, Rank2020: rank}
		s.Snap[Y2016].Exists = true
		s.Snap[Y2020].Exists = true
		g.u.Sites = append(g.u.Sites, s)
		g.u.list2016[i] = s
		g.u.list2020[i] = s
	}
}

// bandSites splits a list into the four popularity bands.
func bandSites(list []*Site, scale int) [NumBands][]*Site {
	var bands [NumBands][]*Site
	for i, s := range list {
		b := core.BandOf(i+1, scale)
		bands[b] = append(bands[b], s)
	}
	return bands
}

// apportion deterministically distributes n slots over weighted shares using
// the largest-remainder method, returning a flattened assignment list of
// length n in shuffled order.
func (g *generator) apportion(shares []Share, n int) []string {
	if n == 0 || len(shares) == 0 {
		return nil
	}
	total := 0.0
	for _, s := range shares {
		total += s.Weight
	}
	type slot struct {
		name  string
		count int
		frac  float64
	}
	slots := make([]slot, len(shares))
	used := 0
	for i, s := range shares {
		exact := float64(n) * s.Weight / total
		c := int(exact)
		slots[i] = slot{s.Provider, c, exact - float64(c)}
		used += c
	}
	// Distribute remainders to the largest fractional parts.
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slots[order[a]].frac > slots[order[b]].frac })
	for i := 0; used < n; i = (i + 1) % len(order) {
		slots[order[i]].count++
		used++
	}
	out := make([]string, 0, n)
	for _, s := range slots {
		for j := 0; j < s.count; j++ {
			out = append(out, s.name)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// withTail appends procedural tail shares to a named share table.
func (g *generator) withTail(shares []Share, svc Service, tailShare float64, snap Snapshot) []Share {
	out := append([]Share(nil), shares...)
	var tails []string
	for _, name := range g.u.providerOrder {
		p := g.u.Providers[name]
		if p.Service != svc || !isTailName(name) {
			continue
		}
		if (snap == Y2016 && p.Exists2016) || (snap == Y2020 && p.Exists2020) {
			tails = append(tails, name)
		}
	}
	if len(tails) == 0 || tailShare <= 0 {
		return out
	}
	// Mild Zipf over the tail so the CDF bends rather than steps.
	totalW := 0.0
	ws := make([]float64, len(tails))
	for i := range tails {
		ws[i] = 1.0 / float64(i+3)
		totalW += ws[i]
	}
	for i, name := range tails {
		out = append(out, Share{name, tailShare * ws[i] / totalW})
	}
	return out
}

func isTailName(name string) bool {
	return len(name) > 5 && (name[:4] == "DNS " || name[:4] == "CDN " || name[:3] == "CA ") &&
		(containsSub(name, "Tail"))
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
