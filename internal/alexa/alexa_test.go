package alexa

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestReadCSVForm(t *testing.T) {
	in := "# Alexa snapshot\n1,google.com\n2,Youtube.COM\n\n3,facebook.com\n"
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := List{{1, "google.com"}, {2, "youtube.com"}, {3, "facebook.com"}}
	if !reflect.DeepEqual(l, want) {
		t.Errorf("got %v", l)
	}
}

func TestReadBareForm(t *testing.T) {
	l, err := Read(strings.NewReader("a.com\nb.org\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 || l[0].Rank != 1 || l[1].Domain != "b.org" {
		t.Errorf("got %v", l)
	}
}

func TestReadSortsByRank(t *testing.T) {
	l, err := Read(strings.NewReader("3,c.com\n1,a.com\n2,b.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l[0].Domain != "a.com" || l[2].Domain != "c.com" {
		t.Errorf("got %v", l)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad rank":         "x,a.com\n",
		"zero rank":        "0,a.com\n",
		"dup rank":         "1,a.com\n1,b.com\n",
		"dup domain":       "1,a.com\n2,a.com\n",
		"invalid domain":   "1,nodots\n",
		"empty domain":     "1,\n",
		"third field":      "1,a.com,x\n",
		"space in domain":  "1,a b.com\n",
		"empty label":      "1,a..com\n",
		"url scheme":       "1,http://a.com\n",
		"url path":         "1,a.com/path\n",
		"underscore":       "1,a_b.com\n",
		"wildcard":         "1,*.a.com\n",
		"long label":       "1," + strings.Repeat("a", 64) + ".com\n",
		"long name":        "1," + strings.Repeat("abcdefgh.", 29) + "com\n",
		"bare invalid":     "a b.com\n",
		"non-ASCII domain": "1,\u00e9cole.fr\n",
		"edge hyphen":      "1,-a-.com\n",
	}
	for name, in := range cases {
		if l, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted as %v", name, l)
		}
	}
}

func TestFromDomains(t *testing.T) {
	l, err := FromDomains([]string{"a.com", "B.org."})
	if err != nil {
		t.Fatal(err)
	}
	if want := (List{{1, "a.com"}, {2, "b.org"}}); !reflect.DeepEqual(l, want) {
		t.Errorf("got %v, want %v", l, want)
	}
	for _, bad := range [][]string{{"foo"}, {""}, {"a.com", "A.COM"}, {"http://a.com"}} {
		if l, err := FromDomains(bad); err == nil {
			t.Errorf("FromDomains(%q) accepted as %v", bad, l)
		}
	}
}

// TestWriteRoundTrip renders a list in the "rank,domain" CSV form that
// ranked-list files use and checks Read recovers it, ranks included.
func TestWriteRoundTrip(t *testing.T) {
	l := List{{1, "x.com"}, {5, "y.net"}, {40, "z.org"}}
	var b strings.Builder
	for _, e := range l {
		fmt.Fprintf(&b, "%d,%s\n", e.Rank, e.Domain)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("round trip: %v vs %v", got, l)
	}
}

func TestDomains(t *testing.T) {
	l, err := FromDomains([]string{"a.com", "b.com"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Domains(), []string{"a.com", "b.com"}) {
		t.Error("Domains mismatch")
	}
}

// FuzzRead feeds Read arbitrary lists. An accepted list has positive,
// distinct, ascending ranks and distinct domains that are valid names, and
// writing it back as "rank,domain" lines reads back the same list.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"# Alexa snapshot\n1,google.com\n2,Youtube.COM\n\n3,facebook.com\n",
		"a.com\nb.org\n",
		"3,c.com\n1,a.com\n2,b.com\n",
		"1,a.com,x\n", "1,a b.com\n", "1,a..com\n", "1,http://a.com\n", "1,a.com/path\n",
		"1,-a-.com\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		l, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var csv strings.Builder
		domains := map[string]bool{}
		for i, e := range l {
			if e.Rank <= 0 || i > 0 && e.Rank <= l[i-1].Rank || domains[e.Domain] || checkDomain(e.Domain) != nil {
				t.Fatalf("Read(%q) accepted entry %d %+v of %v", in, i, e, l)
			}
			domains[e.Domain] = true
			fmt.Fprintf(&csv, "%d,%s\n", e.Rank, e.Domain)
		}
		rt, err := Read(strings.NewReader(csv.String()))
		if err != nil || !reflect.DeepEqual(rt, l) {
			t.Fatalf("round trip of %v: %v, %v", l, rt, err)
		}
	})
}
