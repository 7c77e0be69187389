package chain

import (
	"bytes"
	"encoding/json"
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
