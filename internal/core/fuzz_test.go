package core

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// fuzzGraph is FuzzApplyDelta's fixed base graph: short names so mutated
// documents keep hitting real nodes, inter-provider edges (one cycle),
// private infrastructure, chain edges and every site class.
func fuzzGraph() *Graph {
	single := func(p ...string) Dep { return Dep{Class: ClassSingleThird, Providers: p} }
	multi := func(p ...string) Dep { return Dep{Class: ClassMultiThird, Providers: p} }
	providers := []*Provider{
		{Name: "dyn", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "ns1", Service: DNS, Deps: map[Service]Dep{DNS: single("r53")}},
		{Name: "r53", Service: DNS, Deps: map[Service]Dep{DNS: single("ns1")}},
		{Name: "cf", Service: CDN, Deps: map[Service]Dep{DNS: single("dyn")}},
		{Name: "ak", Service: CDN, Deps: map[Service]Dep{DNS: multi("dyn", "ns1")}},
		{Name: "dc", Service: CA, Deps: map[Service]Dep{DNS: single("ns1"), CDN: single("cf")}},
		{Name: "own", Service: CDN, Deps: map[Service]Dep{DNS: single("dyn")}},
		{Name: "js", Service: Resource, Deps: map[Service]Dep{DNS: single("dyn"), CDN: single("ak")}},
	}
	sites := []*Site{
		{Name: "a", Rank: 1, Deps: map[Service]Dep{DNS: single("dyn"), CDN: single("cf"), CA: single("dc")}},
		{Name: "b", Rank: 2, Deps: map[Service]Dep{DNS: multi("dyn", "ns1"), CDN: {Class: ClassPrivate}}},
		{Name: "c", Rank: 3, Deps: map[Service]Dep{DNS: {Class: ClassPrivatePlusThird, Providers: []string{"r53"}}, CA: single("dc")},
			Chains: []ChainEdge{{Provider: "js", Depth: 1}, {Provider: "js", Depth: 2}}},
		{Name: "d", Rank: 4, Deps: map[Service]Dep{DNS: single("ns1"), CDN: single("own")},
			PrivateInfra: map[Service][]string{CDN: {"own"}}},
		{Name: "e", Rank: 5, Deps: map[Service]Dep{DNS: {Class: ClassUnknown}, CDN: multi("cf", "ak")}},
		{Name: "f", Rank: 6, Deps: map[Service]Dep{DNS: single("lone"), CA: single("dc")},
			Chains: []ChainEdge{{Provider: "js", Depth: 1}}},
	}
	return NewGraph(sites, providers)
}

// tableSnapshot copies an engine's direct-user table with every row
// sorted, so two snapshots compare as multisets.
func tableSnapshot(e *MetricsEngine) (all, crit [][]int32, users []userCounts) {
	sorted := func(rows [][]int32) [][]int32 {
		out := make([][]int32, len(rows))
		for i, r := range rows {
			out[i] = slices.Clone(r)
			slices.Sort(out[i])
		}
		return out
	}
	return sorted(e.baseAll), sorted(e.baseCrit), slices.Clone(e.users)
}

// FuzzApplyDelta decodes arbitrary bytes as a delta and applies it to
// fuzzGraph with an engine primed for DirectOnly and AllIndirect. A failed
// Apply leaves the base graph's counts as they were; a successful one
// leaves the base's direct-user table untouched, and the new graph's
// carried engine answers every count, site set and ranking candidate list
// exactly as a fresh engine over the same nodes and the recursive oracle do.
func FuzzApplyDelta(f *testing.F) {
	for _, doc := range []string{
		`{"ops":[{"op":"site-add","site":{"name":"g","rank":7,"deps":{"dns":{"class":"single-third","providers":["dyn"]}}}}]}`,
		`{"ops":[{"op":"site-remove","name":"a"}]}`,
		`{"ops":[{"op":"site-dep","name":"b","service":"cdn","dep":{"class":"multi-third","providers":["cf","ak"]}}]}`,
		`{"ops":[{"op":"swap","name":"a","service":"dns","from":"dyn","to":"ns1"}]}`,
		`{"ops":[{"op":"provider-set","provider":{"name":"cf","service":"cdn","deps":{"dns":{"class":"single-third","providers":["ns1"]}}}}]}`,
		`{"ops":[{"op":"provider-remove","name":"ak"}]}`,
		`{"ops":[{"op":"site-add","site":{"name":"h","rank":8,"deps":{"dns":{"class":"single-third","providers":["r53"]}},"chains":[{"provider":"js","depth":1},{"provider":"cdnjs","depth":2}]}}]}`,
		`{"ops":[{"op":"site-remove","name":"d"},{"op":"site-add","site":{"name":"d","rank":4,"deps":{"dns":{"class":"single-third","providers":["dyn"]}},"private_infra":{"cdn":["own"]}}}]}`,
	} {
		f.Add([]byte(doc))
	}
	optsList := []TraversalOpts{DirectOnly(), AllIndirect(), AllImplicit()}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		g := fuzzGraph()
		baseC, baseI := map[int]map[string]int{}, map[int]map[string]int{}
		for i, opts := range optsList[:2] {
			baseC[i], baseI[i] = g.Metrics().Counts(opts)
		}
		all, crit, users := tableSnapshot(g.Metrics())

		ng, _, err := g.Apply(d)
		for i, opts := range optsList[:2] {
			c, imp := g.Metrics().Counts(opts)
			if !reflect.DeepEqual(c, baseC[i]) || !reflect.DeepEqual(imp, baseI[i]) {
				t.Fatalf("Apply (err %v) changed the base graph's counts under %v", err, opts.ViaProviders)
			}
		}
		if err != nil {
			return
		}
		if a, c, u := tableSnapshot(g.Metrics()); !reflect.DeepEqual(a, all) || !reflect.DeepEqual(c, crit) || !reflect.DeepEqual(u, users) {
			t.Fatal("Apply edited the base engine's direct-user table")
		}

		fresh := fromScratch(ng)
		for _, svc := range AllServices {
			if got, want := ng.ProvidersOfService(svc), fresh.ProvidersOfService(svc); !slices.Equal(got, want) {
				t.Fatalf("ProvidersOfService(%s) = %v, fresh engine %v", svc, got, want)
			}
			if got, want := DistinctProviders(ng, svc), DistinctProviders(fresh, svc); got != want {
				t.Fatalf("DistinctProviders(%s) = %d, fresh engine %d", svc, got, want)
			}
		}
		names := map[string]bool{"never-seen": true}
		for _, gr := range []*Graph{ng, fresh} {
			gr.EachProviderName(func(n string) { names[n] = true })
		}
		for _, opts := range optsList {
			for name := range names {
				wantC, wantI := ng.concentrationSetRecursive(name, opts), ng.impactSetRecursive(name, opts)
				for _, gr := range []*Graph{ng, fresh} {
					label := "carried"
					if gr == fresh {
						label = "fresh"
					}
					if got := gr.Concentration(name, opts); got != len(wantC) {
						t.Fatalf("%s C(%s) via %v = %d, oracle %d", label, name, opts.ViaProviders, got, len(wantC))
					}
					if got := gr.Impact(name, opts); got != len(wantI) {
						t.Fatalf("%s I(%s) via %v = %d, oracle %d", label, name, opts.ViaProviders, got, len(wantI))
					}
					if got := gr.ConcentrationSet(name, opts); !maps.Equal(got, wantC) {
						t.Fatalf("%s C-set(%s) via %v = %v, oracle %v", label, name, opts.ViaProviders, got, wantC)
					}
					if got := gr.ImpactSet(name, opts); !maps.Equal(got, wantI) {
						t.Fatalf("%s I-set(%s) via %v = %v, oracle %v", label, name, opts.ViaProviders, got, wantI)
					}
				}
			}
		}
	})
}
