package measure

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"depscope/internal/publicsuffix"
)

// linearCDNMatch is the matcher the suffix table replaced, kept as the
// oracle: every normalized suffix as a rule, ordered longest first (ties by
// suffix), the first rule covering the name wins.
func linearCDNMatch(m CDNMap, name string) (cdn, suffix string, ok bool) {
	bySuffix := make(map[string]string, len(m))
	for raw, n := range m {
		s := publicsuffix.Normalize(raw)
		if s == "" {
			continue
		}
		if cur, ok := bySuffix[s]; !ok || n < cur {
			bySuffix[s] = n
		}
	}
	suffixes := make([]string, 0, len(bySuffix))
	for s := range bySuffix {
		suffixes = append(suffixes, s)
	}
	sort.Slice(suffixes, func(i, j int) bool {
		a, b := suffixes[i], suffixes[j]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a < b
	})
	name = publicsuffix.Normalize(name)
	for _, s := range suffixes {
		if name == s || strings.HasSuffix(name, "."+s) {
			return bySuffix[s], s, true
		}
	}
	return "", "", false
}

// randomCDNName joins 1–4 labels from a small alphabet, so rules nest and
// overlap often.
func randomCDNName(rng *rand.Rand) string {
	labels := []string{"cdn", "edge", "a", "b", "net", "test", "x-y"}
	parts := make([]string, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = labels[rng.Intn(len(labels))]
	}
	return strings.Join(parts, ".")
}

// rawVariant dresses a name the way raw map keys and chain names arrive:
// mixed case, a trailing dot, a "*." prefix, surrounding space or an empty
// label. All but the last normalize back to the name.
func rawVariant(rng *rand.Rand, name string) string {
	switch rng.Intn(6) {
	case 0:
		return strings.ToUpper(name)
	case 1:
		return name + "."
	case 2:
		return "*." + name
	case 3:
		return " " + name + " "
	case 4:
		return "q.." + name
	}
	return name
}

func TestPropertyCDNMatchMatchesLinearScan(t *testing.T) {
	cdns := []string{"Akamai", "Cloudflare", "Fastly", "Edge"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := CDNMap{}
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			suffix := randomCDNName(rng)
			m[rawVariant(rng, suffix)] = cdns[rng.Intn(len(cdns))]
			if rng.Intn(3) == 0 {
				// A second raw key normalizing to the same suffix, maybe
				// under another CDN: the smaller name must win.
				m[rawVariant(rng, suffix)] = cdns[rng.Intn(len(cdns))]
			}
		}
		c := m.compile()
		for i := 0; i < 50; i++ {
			name := rawVariant(rng, randomCDNName(rng))
			if rng.Intn(2) == 0 {
				name = randomCDNName(rng) + "." + name
			}
			gc, gs, gok := c.Match(name)
			wc, ws, wok := linearCDNMatch(m, name)
			if gc != wc || gs != ws || gok != wok {
				t.Fatalf("seed %d: Match(%q) over %v = (%q, %q, %v), linear scan gives (%q, %q, %v)",
					seed, name, m, gc, gs, gok, wc, ws, wok)
			}
		}
	}
}
