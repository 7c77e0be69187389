// Package strictjson decodes the JSON documents that cross a process
// boundary (deltas, delta streams, scenarios, sweeps, chain configs and
// summaries, checkpoints, HTTP bodies) under one rule: exactly one
// document, no unknown object fields, nothing after the document.
//
// encoding/json still matches field names case-insensitively, so a key
// that differs from a field only in case is accepted.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// errTrailingData is returned when anything but white space follows the
// document.
var errTrailingData = errors.New("trailing data after the JSON document")

// Decode decodes exactly one JSON document from r into v, rejecting object
// fields v has no field for and any data after the document. A rejected
// unknown field's error names it ("json: unknown field ...").
func Decode(r io.Reader, v any) error {
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
