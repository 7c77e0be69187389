package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
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
