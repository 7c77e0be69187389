package resolver

import (
	"context"
	"testing"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
)

// TestDirectLookupAllocs guards the in-process path: a resolver over
// ZoneDirect answers an exact hit, an NXDOMAIN and a NODATA for an
// already-canonical name without allocating, and keeps no cache.
func TestDirectLookupAllocs(t *testing.T) {
	r := New(ZoneDirect{testStore()})
	ctx := context.Background()
	cases := []struct {
		name    string
		qname   string
		qtype   dnsmsg.Type
		rcode   dnsmsg.RCode
		answers int
	}{
		{"exact hit", "twitter.test.", dnsmsg.TypeNS, dnsmsg.RCodeSuccess, 2},
		{"nxdomain", "gone.twitter.test.", dnsmsg.TypeA, dnsmsg.RCodeNameError, 0},
		{"nodata", "ns1.dyn.test.", dnsmsg.TypeSOA, dnsmsg.RCodeSuccess, 0},
	}
	for _, c := range cases {
		res, err := r.Lookup(ctx, c.qname, c.qtype)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.RCode != c.rcode || len(res.Answers) != c.answers {
			t.Fatalf("%s: rcode %v with %d answers, want %v with %d", c.name, res.RCode, len(res.Answers), c.rcode, c.answers)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := r.Lookup(ctx, c.qname, c.qtype); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: direct lookup allocates %.1f per lookup, want 0", c.name, allocs)
		}
	}
	if s := r.Stats(); s.Hits != 0 || s.Cached {
		t.Fatalf("direct resolver has a cache: stats %+v", s)
	}
}

// TestDirectLookupSeesStoreEdits: with no cache between the resolver and
// the store, a record added after a lookup shows on the very next lookup,
// and so does a zone published after one.
func TestDirectLookupSeesStoreEdits(t *testing.T) {
	s := testStore()
	r := New(ZoneDirect{s})
	ctx := context.Background()

	res, err := r.Lookup(ctx, "api.twitter.test.", dnsmsg.TypeA)
	if err != nil || res.RCode != dnsmsg.RCodeNameError {
		t.Fatalf("before Add: %+v, %v; want NXDOMAIN", res, err)
	}
	s.Zone("twitter.test.").MustAdd(dnsmsg.Record{Name: "api.twitter.test.", Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(104, 244, 42, 9)})
	res, err = r.Lookup(ctx, "api.twitter.test.", dnsmsg.TypeA)
	if err != nil || len(res.Answers) != 1 || res.Answers[0].Addr != dnsmsg.IPv4(104, 244, 42, 9) {
		t.Fatalf("after Add: %+v, %v; want one A record 104.244.42.9", res, err)
	}

	if _, err := r.NS(ctx, "late.test."); err == nil {
		t.Fatal("lookup outside every zone should fail")
	}
	late := dnszone.NewZone("late.test.", dnsmsg.SOAData{MName: "ns1.late.test.", RName: "ops.late.test."})
	late.MustAdd(dnsmsg.Record{Name: "late.test.", Type: dnsmsg.TypeNS, TTL: 300, Target: "ns1.late.test."})
	s.AddZone(late)
	ns, err := r.NS(ctx, "late.test.")
	if err != nil || len(ns) != 1 || ns[0] != "ns1.late.test." {
		t.Fatalf("after AddZone: %v, %v; want [ns1.late.test.]", ns, err)
	}
}
