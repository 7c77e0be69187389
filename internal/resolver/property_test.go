package resolver_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"depscope/internal/dnsmsg"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

type question struct {
	name  string
	qtype dnsmsg.Type
}

// recordingTransport remembers every question that reaches it.
type recordingTransport struct {
	inner resolver.Transport
	mu    sync.Mutex
	seen  map[question]bool
}

func (t *recordingTransport) Exchange(ctx context.Context, q *dnsmsg.Message) (*dnsmsg.Message, error) {
	t.mu.Lock()
	t.seen[question{q.Questions[0].Name, q.Questions[0].Type}] = true
	t.mu.Unlock()
	return t.inner.Exchange(ctx, q)
}

// TestPropertyDirectMatchesCached: over a materialized 2K-site world, for
// every (name, type) the measurement pipeline asks, the uncached resolver
// over ZoneDirect returns the same Result (and the same error) as a cached
// resolver over a transport wrapping ZoneDirect.
func TestPropertyDirectMatchesCached(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020} {
		w := ecosystem.Materialize(u, snap)
		rec := &recordingTransport{inner: resolver.ZoneDirect{Store: w.Zones}, seen: map[question]bool{}}
		if _, err := measure.Run(context.Background(), w.Sites, measure.Config{
			Resolver: resolver.New(rec),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   measure.CDNMap(w.CNAMEToCDN),
		}); err != nil {
			t.Fatal(err)
		}
		qs := make([]question, 0, len(rec.seen))
		types := map[dnsmsg.Type]bool{}
		for q := range rec.seen {
			qs = append(qs, q)
			types[q.qtype] = true
		}
		sort.Slice(qs, func(i, j int) bool {
			if qs[i].name != qs[j].name {
				return qs[i].name < qs[j].name
			}
			return qs[i].qtype < qs[j].qtype
		})
		for _, want := range []dnsmsg.Type{dnsmsg.TypeNS, dnsmsg.TypeSOA, dnsmsg.TypeCNAME} {
			if !types[want] {
				t.Fatalf("%v: the pipeline asked no %v question", snap, want)
			}
		}

		ctx := context.Background()
		direct := resolver.New(resolver.ZoneDirect{Store: w.Zones})
		cached := resolver.New(resolver.NewCountingTransport(resolver.ZoneDirect{Store: w.Zones}))
		for _, q := range qs {
			dr, derr := direct.Lookup(ctx, q.name, q.qtype)
			cr, cerr := cached.Lookup(ctx, q.name, q.qtype)
			if !sameErr(derr, cerr) {
				t.Fatalf("%v %s %v: direct err %v, cached err %v", snap, q.name, q.qtype, derr, cerr)
			}
			if !reflect.DeepEqual(dr, cr) {
				t.Fatalf("%v %s %v: results differ\ndirect: %+v\ncached: %+v", snap, q.name, q.qtype, dr, cr)
			}
		}
		if s := direct.Stats(); s.Queries != int64(len(qs)) || s.Hits != 0 {
			t.Fatalf("%v: direct stats %+v, want %d queries and no hits", snap, s, len(qs))
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, resolver.ErrServFail) == errors.Is(b, resolver.ErrServFail)
}
