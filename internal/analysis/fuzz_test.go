package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseDeltaStream drives the depscope -timeline decoder with arbitrary
// bytes. A stream either fails to parse, or survives a json.Marshal →
// ParseDeltaStream round trip unchanged.
func FuzzParseDeltaStream(f *testing.F) {
	for _, doc := range []string{
		// The docs/incremental.md §3 timeline example.
		`{"base": "2016", "steps": [
  {"label": "dyn exodus",  "delta": {"ops": [
    {"op": "swap", "name": "twitter.com", "service": "dns", "from": "dyn.com", "to": "awsdns.net"}]}},
  {"label": "diversify",   "delta": {"ops": [
    {"op": "site-dep", "name": "twitter.com", "service": "dns",
     "dep": {"class": "multi-third", "providers": ["awsdns.net", "nsone.net"]}}]}}
]}`,
		// The docs/incremental.md §1 delta, one op of each kind, as a step.
		`{"base": "2020", "steps": [{"label": "every op", "delta": {"ops": [
  {"op": "swap",            "name": "example.com", "service": "dns", "from": "dyn.com", "to": "awsdns.net"},
  {"op": "site-dep",        "name": "example.com", "service": "cdn",
                            "dep": {"class": "multi-third", "providers": ["Akamai", "Fastly"]}},
  {"op": "site-add",        "site": {"name": "new.example", "rank": 101,
                            "deps": {"dns": {"class": "single-third", "providers": ["dyn.com"]}}}},
  {"op": "site-remove",     "name": "old.example"},
  {"op": "provider-set",    "provider": {"name": "Fastly", "service": "cdn",
                            "deps": {"dns": {"class": "single-third", "providers": ["dyn.com"]}}}},
  {"op": "provider-remove", "name": "Fastly"}
]}}]}`,
		`{"steps":[{"delta":{"ops":[{"op":"site-add","site":{"name":"s","private_infra":{"cdn":["own"]},"chains":[{"provider":"js","depth":2}]}}]}}]}`,
		// Empty lists, and a step with no delta, decode as nil.
		`{"steps":[{},{"delta":{"ops":[{"op":"site-add","site":{"name":"s","chains":[]}},{"op":"site-dep","name":"s","service":"dns","dep":{"class":"none","providers":[]}}]}}]}`,
		`{"steps":[]}`,
		`{"steps":[]}{"steps":[]}`,
	} {
		f.Add([]byte(doc))
	}
	// A key that names a field only in another case is refused.
	for _, doc := range []string{`{"BAse": "0000", "steps": [{}]}`} {
		if _, err := ParseDeltaStream(strings.NewReader(doc)); err == nil {
			f.Fatalf("case-variant stream %s accepted", doc)
		}
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ParseDeltaStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatalf("marshal %+v: %v", ds, err)
		}
		rt, err := ParseDeltaStream(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("round trip of %s: %v", b, err)
		}
		if !reflect.DeepEqual(rt, ds) {
			t.Fatalf("round trip drifted: %+v became %+v via %s", ds, rt, b)
		}
	})
}

// BenchmarkParseDeltaStream decodes a 1 MiB delta stream of small steps,
// the shape of a long -timeline file: the cost is per nested delta.
func BenchmarkParseDeltaStream(b *testing.B) {
	var buf bytes.Buffer
	buf.WriteString(`{"base": "2016", "steps": [`)
	for i := 0; buf.Len() < 1<<20; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"label": "s%d", "delta": {"ops": [{"op": "swap", "name": "b.com", "service": "dns", "from": "dns1", "to": "dns2"}]}}`, i)
	}
	buf.WriteString(`]}`)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDeltaStream(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
