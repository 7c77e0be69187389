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
