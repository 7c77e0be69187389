package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"depscope/internal/incident"
)

// decodeStrictBody decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data: a 200 body must be what its route
// promises and nothing else.
func decodeStrictBody(t *testing.T, body string, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("200 body does not decode: %v\n%s", err, body)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("200 body has trailing data: %s", body)
	}
}

// checkResponse holds every POST response to the routes' contract: never a
// 5xx, a 413 for any body past maxBodyBytes, and a 200 body that
// strict-decodes into want.
func checkResponse(t *testing.T, body []byte, code int, resp string, want any) {
	t.Helper()
	switch {
	case code >= 500:
		t.Fatalf("status %d for body %q: %s", code, body, resp)
	case len(body) > maxBodyBytes && code != http.StatusRequestEntityTooLarge:
		t.Fatalf("%d-byte body answered %d, want 413", len(body), code)
	case code == http.StatusOK:
		decodeStrictBody(t, resp, want)
	}
}

// addBodySeeds adds the corpus both handler fuzzers share: trailing
// garbage after a valid document, and an over-limit body.
func addBodySeeds(f *testing.F, valid string) {
	f.Add([]byte(valid))
	f.Add([]byte(valid + ` {"garbage"`))
	f.Add([]byte(valid + "}"))
	f.Add(bytes.Repeat([]byte(" "), maxBodyBytes+1))
	f.Add([]byte(pad(valid, maxBodyBytes+1)))
}

// FuzzSweepHandler drives POST /v1/sweep on a prewarmed manager with
// arbitrary bodies.
func FuzzSweepHandler(f *testing.F) {
	for _, name := range incident.SweepPresetNames() {
		sp, _ := incident.SweepPreset(name)
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"rec","scenarios":50,"base_prob":0.4,"recovery":{"steps":4,"mean_minutes":30}}`))
	f.Add([]byte(`{"name":"fixed","scenarios":10,"targets":{"providers":["dns1.com","cdn1.com"]},"joint_failures":true}`))
	addBodySeeds(f, validBodies["/v1/sweep"])
	f.Fuzz(func(t *testing.T, body []byte) {
		code, resp := post(prewarmedMux(t), "/v1/sweep", string(body))
		checkResponse(t, body, code, resp, &incident.SweepReport{})
	})
}

// FuzzDeltaHandler drives POST /v1/delta on a prewarmed manager with the
// delta API enabled. Each input gets a fresh manager, so a failure
// reproduces from its input alone.
func FuzzDeltaHandler(f *testing.F) {
	for _, op := range []string{
		`{"op":"site-add","site":{"name":"c.com","rank":3,"deps":{"dns":{"class":"single-third","providers":["dns2.com"]}}}}`,
		`{"op":"site-remove","name":"a.com"}`,
		`{"op":"site-dep","name":"a.com","service":"cdn","dep":{"class":"single-third","providers":["cdn2.com"]}}`,
		`{"op":"swap","name":"b.com","service":"dns","from":"dns1.com","to":"dns2.com"}`,
		`{"op":"provider-set","provider":{"name":"cdn2.com","service":"cdn","deps":{"dns":{"class":"single-third","providers":["dns2.com"]}}}}`,
		`{"op":"provider-remove","name":"ca1.com"}`,
	} {
		f.Add([]byte(`{"snapshot":"2020","base_version":1,"delta":{"ops":[` + op + `]}}`))
	}
	addBodySeeds(f, validBodies["/v1/delta"])
	f.Fuzz(func(t *testing.T, body []byte) {
		code, resp := post(prewarmedMux(t), "/v1/delta", string(body))
		checkResponse(t, body, code, resp, &struct {
			Version uint64     `json:"version"`
			Delta   *DeltaInfo `json:"delta"`
		}{})
	})
}
