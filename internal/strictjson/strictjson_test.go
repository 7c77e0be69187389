package strictjson

import (
	"errors"
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, c := range []struct {
		name, in, wantErr string
		want              int
	}{
		{"one document", `{"a": 1}`, "", 1},
		{"trailing white space", "{\"a\": 2} \n\t", "", 2},
		{"unknown field", `{"a": 1, "b": 2}`, `unknown field "b"`, 0},
		{"second document", `{"a": 1}{"a": 2}`, "trailing data", 0},
		{"trailing garbage", `{"a": 1} x`, "trailing data", 0},
		{"empty", ``, "EOF", 0},
		{"truncated", `{"a": `, "unexpected EOF", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var d doc
			err := Decode(strings.NewReader(c.in), &d)
			if c.wantErr == "" {
				if err != nil || d.A != c.want {
					t.Fatalf("Decode = %+v, %v; want a=%d", d, err, c.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Decode error = %v, want one containing %q", err, c.wantErr)
			}
			if c.wantErr == "trailing data" && !errors.Is(err, errTrailingData) {
				t.Errorf("trailing-data error %v is not errTrailingData", err)
			}
		})
	}
}

// selfChecked decodes itself, as core.Delta does: the walk leaves its keys
// to it.
type selfChecked struct{ raw string }

func (s *selfChecked) UnmarshalJSON(b []byte) error {
	s.raw = string(b)
	return nil
}

type inner struct {
	Name string `json:"name"`
}

type Embedded struct {
	Depth int `json:"depth"`
}

type nested struct {
	Embedded
	Items  []inner            `json:"items"`
	ByKey  map[string]inner   `json:"by_key"`
	Any    any                `json:"any"`
	Self   selfChecked        `json:"self"`
	Ptr    *inner             `json:"ptr"`
	Arrays [][]inner          `json:"arrays"`
	Plain  int                // untagged: its key is its Go name
	Data   map[string][]int   `json:"data"`
	Skip   int                `json:"-"`
	Opt    map[string]*inner  `json:"opt,omitempty"`
	Rows   []map[string]inner `json:"rows"`
}

// TestDecodeExactCase: a key that names a field only when case is ignored
// is refused at any depth, through pointers, slices, arrays and map values;
// map keys, values of type any and json.Unmarshaler values are data and
// pass in any case. DecodeFoldCase still accepts the case variants.
func TestDecodeExactCase(t *testing.T) {
	for _, c := range []struct {
		name, in, wantErr string
	}{
		{"exact keys", `{"depth": 1, "items": [{"name": "a"}], "by_key": {"K": {"name": "b"}},
			"any": {"ANY": {"Keys": 1}}, "self": {"WHATEVER": 1}, "ptr": {"name": "c"},
			"arrays": [[{"name": "d"}]], "Plain": 2, "data": {"DEPS": [1]}, "opt": {"X": null},
			"rows": [{"Row": {"name": "e"}}]}`, ""},
		{"nulls", `{"ptr": null, "items": null, "by_key": null, "any": null}`, ""},
		{"top-level case variant", `{"DEPTH": 1}`, `field "DEPTH" does not match the case of "depth"`},
		{"untagged field in another case", `{"plain": 1}`, `field "plain" does not match the case of "Plain"`},
		{"in a slice element", `{"items": [{"name": "a"}, {"Name": "b"}]}`, `field "Name"`},
		{"in a map value", `{"by_key": {"k": {"NAME": "b"}}}`, `field "NAME"`},
		{"behind a pointer", `{"ptr": {"nAme": "c"}}`, `field "nAme"`},
		{"in a nested array", `{"arrays": [[], [{"NaMe": "d"}]]}`, `field "NaMe"`},
		{"in a map in a slice", `{"rows": [{"r": {"name": "x", "NAME": "y"}}]}`, `field "NAME"`},
		{"unknown field still named", `{"nope": 1}`, `unknown field "nope"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var d nested
			err := Decode(strings.NewReader(c.in), &d)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Decode = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Decode error = %v, want one containing %q", err, c.wantErr)
			}
		})
	}
	var d nested
	if err := DecodeFoldCase(strings.NewReader(`{"DEPTH": 3, "items": [{"NAME": "a"}]}`), &d); err != nil || d.Depth != 3 || d.Items[0].Name != "a" {
		t.Errorf("DecodeFoldCase = %+v, %v; want the case variants matched", d, err)
	}
}
