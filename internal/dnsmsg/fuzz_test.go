package dnsmsg

import (
	"reflect"
	"testing"
)

// Native fuzz targets. `go test` runs them over the seed corpus; use
// `go test -fuzz=FuzzUnpack ./internal/dnsmsg` for an open-ended session.

func FuzzUnpack(f *testing.F) {
	// Seed with valid packed messages of every record type plus structural
	// edge cases.
	m := &Message{
		Header:    Header{ID: 1, Response: true, Authoritative: true},
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassIN}},
		Answers:   sampleRecords(),
	}
	if b, err := m.Pack(); err == nil {
		f.Add(b)
	}
	q := NewQuery(7, "fuzz.example.", TypeSOA)
	q.SetEDNS0(4096)
	if b, err := q.Pack(); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add(make([]byte, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		// Anything that parses must re-pack, and the repacked form must
		// parse back to the same message (canonicalization fixpoint).
		b2, err := m.Pack()
		if err != nil {
			// Unpack may surface names Pack rejects (e.g. >255 octets built
			// from compression); that asymmetry is acceptable.
			return
		}
		m2, err := Unpack(b2)
		if err != nil {
			t.Fatalf("repacked message does not parse: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("pack/unpack not a fixpoint:\n%+v\n%+v", m, m2)
		}
	})
}

func FuzzReadName(f *testing.F) {
	f.Add([]byte{3, 'w', 'w', 'w', 0}, 0)
	f.Add([]byte{0xC0, 0}, 0)
	f.Add([]byte{63}, 0)
	f.Fuzz(func(t *testing.T, buf []byte, off int) {
		if off < 0 || off > len(buf) {
			return
		}
		name, next, err := readName(buf, off, nil)
		if err != nil {
			return
		}
		if next < 0 || next > len(buf) {
			t.Fatalf("next offset %d out of range (len %d)", next, len(buf))
		}
		if len(name) == 0 {
			t.Fatal("empty name without error")
		}
	})
}
