// Package strictjson decodes the JSON documents that cross a process
// boundary (deltas, delta streams, scenarios, sweeps, chain configs and
// summaries, checkpoints, HTTP bodies) under one rule: exactly one
// document, no unknown object fields, nothing after the document.
//
// Decode also refuses a key that names a struct field only when case is
// ignored, which encoding/json alone accepts: {"BAse": …} is not "base".
// Map keys are data and are not checked. DecodeFoldCase keeps
// encoding/json's case-insensitive field match, for checkpoints only.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
)

// errTrailingData is returned when anything but white space follows the
// document.
var errTrailingData = errors.New("trailing data after the JSON document")

// Decode decodes exactly one JSON document from r into v, rejecting object
// fields v has no field for, keys that match a field only in another case,
// and any data after the document. A rejected field's error names it
// ("json: unknown field ..." or "json: field ... does not match the case
// of ...").
func Decode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return Unmarshal(data, v)
}

// Unmarshal is Decode over a document already in memory, such as the bytes
// a json.Unmarshaler is handed.
func Unmarshal(data []byte, v any) error {
	if err := DecodeFoldCase(bytes.NewReader(data), v); err != nil {
		return err
	}
	w := walker{data: data}
	return w.value(reflect.TypeOf(v))
}

// DecodeFoldCase is Decode without the case check: a key matches a struct
// field as encoding/json matches it, ignoring case. Only the checkpoint
// decoder uses it. A checkpoint is one document of up to several MB, and
// until the checkpoint becomes a journal of bounded records it is the one
// document whose size makes a second pass over it cost something.
func DecodeFoldCase(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

var unmarshalerType = reflect.TypeFor[json.Unmarshaler]()

// walker checks a document that has already decoded into its Go type
// without unknown fields, so it is well-formed JSON and every object key
// that is not exactly a field's JSON name matches one in another case.
type walker struct {
	data []byte
	i    int
}

var errTruncated = errors.New("json: unexpected end of the document")

// value walks the next JSON value against the Go type t it was decoded
// into and refuses an object key that is not exactly the JSON name of one
// of a struct's fields. A nil t is data of no struct type (any, or a
// json.Unmarshaler that checks itself): its keys are not checked.
func (w *walker) value(t reflect.Type) error {
	for t != nil && t.Kind() == reflect.Pointer {
		if t.Implements(unmarshalerType) {
			t = nil
			break
		}
		t = t.Elem()
	}
	if t != nil && (t.Kind() == reflect.Interface || reflect.PointerTo(t).Implements(unmarshalerType)) {
		t = nil
	}
	c, err := w.next()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		w.i++
		var fields map[string]reflect.Type
		var elem reflect.Type
		if t != nil {
			switch t.Kind() {
			case reflect.Struct:
				fields = jsonFields(t)
			case reflect.Map:
				elem = t.Elem()
			}
		}
		return w.each('}', func() error {
			key, err := w.str()
			if err != nil {
				return err
			}
			if c, err := w.next(); err != nil || c != ':' {
				return errTruncated
			}
			w.i++
			vt := elem
			if fields != nil {
				ft, ok := fields[string(key)]
				if !ok {
					return fmt.Errorf("json: field %q does not match the case of %s", key, fieldLike(fields, string(key)))
				}
				vt = ft
			}
			return w.value(vt)
		})
	case '[':
		w.i++
		var elem reflect.Type
		if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array) {
			elem = t.Elem()
		}
		return w.each(']', func() error { return w.value(elem) })
	case '"':
		_, err := w.str()
		return err
	}
	for ; w.i < len(w.data); w.i++ { // a number, true, false or null
		switch w.data[w.i] {
		case ',', ']', '}', ' ', '\t', '\r', '\n':
			return nil
		}
	}
	return nil
}

// each runs f on every member of the object or array just opened, up to
// its closing byte.
func (w *walker) each(closing byte, f func() error) error {
	for first := true; ; first = false {
		c, err := w.next()
		if err != nil {
			return err
		}
		if c == closing {
			w.i++
			return nil
		}
		if !first {
			if c != ',' {
				return errTruncated
			}
			w.i++
		}
		if err := f(); err != nil {
			return err
		}
	}
}

// next skips white space and returns the byte it stops at.
func (w *walker) next() (byte, error) {
	for ; w.i < len(w.data); w.i++ {
		switch c := w.data[w.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c, nil
		}
	}
	return 0, errTruncated
}

// str reads the string literal at the cursor and returns its value.
func (w *walker) str() ([]byte, error) {
	if c, err := w.next(); err != nil || c != '"' {
		return nil, errTruncated
	}
	start, escaped := w.i, false
	for w.i++; w.i < len(w.data); w.i++ {
		switch w.data[w.i] {
		case '\\':
			escaped = true
			w.i++
		case '"':
			w.i++
			lit := w.data[start:w.i]
			if !escaped {
				return lit[1 : len(lit)-1], nil
			}
			var s string
			err := json.Unmarshal(lit, &s)
			return []byte(s), err
		}
	}
	return nil, errTruncated
}

// fieldLike names the field that key matches when case is ignored.
func fieldLike(fields map[string]reflect.Type, key string) string {
	for name := range fields {
		if strings.EqualFold(name, key) {
			return fmt.Sprintf("%q", name)
		}
	}
	return "any field"
}

// fieldCache maps a struct type to its jsonFields.
var fieldCache sync.Map

// jsonFields returns the JSON object keys encoding/json decodes into struct
// type t, each with the type of its field: tagged names, untagged exported
// field names, and the fields of untagged embedded structs, a shallower
// field hiding a deeper one of the same name.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	if f, ok := fieldCache.Load(t); ok {
		return f.(map[string]reflect.Type)
	}
	fields := make(map[string]reflect.Type)
	addFields(fields, t, make(map[string]int), 0)
	fieldCache.Store(t, fields)
	return fields
}

func addFields(fields map[string]reflect.Type, t reflect.Type, depth map[string]int, d int) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if f.Anonymous && name == "" {
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				addFields(fields, ft, depth, d+1)
				continue
			}
		}
		if !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if prev, ok := depth[name]; ok && prev <= d {
			continue
		}
		fields[name], depth[name] = f.Type, d
	}
}
