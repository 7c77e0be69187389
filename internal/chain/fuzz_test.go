package chain

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseConfig drives the -chain-config decoder with arbitrary bytes. A
// file either fails to parse, or yields a configuration that validates and
// survives a json.Marshal → ParseConfig round trip unchanged.
func FuzzParseConfig(f *testing.F) {
	def, err := json.Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add([]byte(`{"max_depth":4}`))
	f.Add([]byte(`{"max_depth":4,"surprise":true}`))
	f.Add([]byte(`{"max_depth":4} {"max_depth":2}`))
	f.Add([]byte(`{"max_depth":4}garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseConfig(%q) returned an invalid config: %v", data, err)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %+v: %v", c, err)
		}
		rt, err := ParseConfig(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("round trip of %s: %v", b, err)
		}
		if rt != c {
			t.Fatalf("round trip drifted: %+v became %+v via %s", c, rt, b)
		}
	})
}

// FuzzParseSummary drives the strict GET /v1/chains client decoder with
// arbitrary bytes. A summary either fails to parse, or survives a
// json.Marshal → ParseSummary round trip unchanged.
func FuzzParseSummary(f *testing.F) {
	sum, err := json.Marshal(Summarize(chainedGraph(), 10))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sum)
	f.Add([]byte(`{"sites":3,"mean_depth":1.5,"depth_histogram":null,"top_implicit":[],"comparison":[{"provider":"p"}]}`))
	f.Add([]byte(`{"sites":3,"surprise":true}`))
	f.Add([]byte(`{"sites":3} {"sites":4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		rt, err := ParseSummary(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("round trip of %s: %v", b, err)
		}
		if !reflect.DeepEqual(rt, s) {
			t.Fatalf("round trip drifted: %+v became %+v via %s", s, rt, b)
		}
	})
}
