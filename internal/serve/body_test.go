package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/incident"
)

// validBodies is one request per POST route that succeeds against fakeRun.
var validBodies = map[string]string{
	"/incident": `{"name":"x","targets":{"providers":["dns1.com"]}}`,
	"/v1/sweep": `{"name":"x","scenarios":20,"base_prob":0.5}`,
	"/v1/delta": `{"delta":{"ops":[{"op":"swap","name":"b.com","service":"dns","from":"dns1.com","to":"dns2.com"}]}}`,
}

// post drives one POST through h without a network round trip.
func post(h http.Handler, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// prewarmedMux returns the query API over a freshly built fakeRun snapshot,
// with the delta API enabled.
func prewarmedMux(t testing.TB) *http.ServeMux {
	t.Helper()
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls), WithDeltaAPI())
	if _, err := m.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	Register(mux, m)
	return mux
}

// pad appends whitespace to a JSON document until it is n bytes long.
func pad(doc string, n int) string {
	return doc + strings.Repeat(" ", n-len(doc))
}

// TestBodyLimit: a body one byte over maxBodyBytes is refused with 413 and
// the JSON error shape on every POST route, whether the excess is inside the
// document or after it, and a valid body of exactly maxBodyBytes still
// succeeds.
func TestBodyLimit(t *testing.T) {
	for path, doc := range validBodies {
		over := map[string]string{
			"trailing": pad(doc, maxBodyBytes+1),
			"inside":   doc[:1] + strings.Repeat(" ", maxBodyBytes) + doc[1:],
		}
		for name, body := range over {
			code, resp := post(prewarmedMux(t), path, body)
			if code != http.StatusRequestEntityTooLarge || !strings.Contains(resp, `"error"`) {
				t.Errorf("%s %s over the limit = %d: %s", path, name, code, resp)
			}
		}
		if code, resp := post(prewarmedMux(t), path, pad(doc, maxBodyBytes)); code != http.StatusOK {
			t.Errorf("%s at the limit = %d: %s", path, code, resp)
		}
	}
}

// TestSimulationRoutesCancelled: a request whose context is already
// cancelled gets 408 with the JSON error shape from both simulation routes,
// however the spec arrives.
func TestSimulationRoutesCancelled(t *testing.T) {
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/incident", validBodies["/incident"]},
		{http.MethodPost, "/v1/sweep", validBodies["/v1/sweep"]},
		{http.MethodGet, "/v1/sweep?preset=mc-baseline", ""},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
		prewarmedMux(t).ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestTimeout || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s %s cancelled = %d: %s", tc.method, tc.path, rec.Code, rec.Body.String())
		}
	}
}

// TestCaseVariantKeysRefused: every decoder of a document that crosses a
// process boundary, checkpoints aside, refuses a key that names a field
// only in another case, under its own error prefix, at the top level and
// nested; the exact-case document decodes.
func TestCaseVariantKeysRefused(t *testing.T) {
	parse := func(f func(io.Reader) error) func(string) error {
		return func(doc string) error { return f(strings.NewReader(doc)) }
	}
	mux := prewarmedMux(t)
	for _, c := range []struct {
		name, exact, prefix string
		variants            []string
		decode              func(string) error
	}{
		{"delta", `{"ops": [{"op": "site-remove", "name": "a.com"}]}`, "decode delta: ",
			[]string{`{"OPS": []}`, `{"ops": [{"Op": "site-remove", "name": "a.com"}]}`},
			parse(func(r io.Reader) error { _, err := core.ParseDelta(r); return err })},
		{"delta stream", `{"base": "2016", "steps": [{}]}`, "decode delta stream: ",
			[]string{`{"BAse": "0000", "steps": [{}]}`, `{"steps": [{"Label": "x"}]}`,
				`{"steps": [{"delta": {"ops": [{"op": "site-remove", "NAME": "a.com"}]}}]}`},
			parse(func(r io.Reader) error { _, err := analysis.ParseDeltaStream(r); return err })},
		{"scenario", `{"name": "x", "targets": {"providers": ["a"]}}`, "incident: parse scenario: ",
			[]string{`{"Name": "x", "targets": {"providers": ["a"]}}`, `{"name": "x", "targets": {"Providers": ["a"]}}`},
			parse(func(r io.Reader) error { _, err := incident.ParseScenario(r); return err })},
		{"sweep", `{"name": "x", "scenarios": 20}`, "incident: parse sweep spec: ",
			[]string{`{"name": "x", "SCENARIOS": 20}`},
			parse(func(r io.Reader) error { _, err := incident.ParseSweep(r); return err })},
		{"chain config", `{"max_depth": 4}`, "decode chain config: ",
			[]string{`{"Max_Depth": 4}`},
			parse(func(r io.Reader) error { _, err := chain.ParseConfig(r); return err })},
		{"chain summary", `{"sites": 1}`, "decode chain summary: ",
			[]string{`{"Sites": 1}`},
			parse(func(r io.Reader) error { _, err := chain.ParseSummary(r); return err })},
		{"POST /v1/delta", validBodies["/v1/delta"], "bad delta request: ",
			[]string{strings.Replace(validBodies["/v1/delta"], `"delta"`, `"Delta"`, 1),
				strings.Replace(validBodies["/v1/delta"], `"from"`, `"FROM"`, 1)},
			func(doc string) error {
				if code, body := post(mux, "/v1/delta", doc); code != http.StatusOK {
					return errors.New(body)
				}
				return nil
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.exact); err != nil {
				t.Fatalf("exact-case document refused: %v", err)
			}
			for _, doc := range c.variants {
				err := c.decode(doc)
				if err == nil || !strings.Contains(err.Error(), c.prefix) || !strings.Contains(err.Error(), "does not match the case of") {
					t.Errorf("%s: error = %v, want a case mismatch under %q", doc, err, c.prefix)
				}
			}
		})
	}
}
