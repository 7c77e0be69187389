package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/serve"
)

// TestMetricsCatalogBeforeFirstBuild scrapes /metrics from a mux whose
// snapshot was never built, so no measurement has run in this process (this
// file sorts before main_test.go, whose tests build one): every pipeline
// stage's series must already be listed.
func TestMetricsCatalogBeforeFirstBuild(t *testing.T) {
	mgr := serve.NewManager(context.Background(), func(context.Context) (*analysis.Run, error) {
		t.Error("scraping /metrics built a snapshot")
		return nil, errors.New("no build expected")
	})
	srv := httptest.NewServer(newAdminMux(mgr))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, stage := range []string{"resolve", "dns", "ca", "cdn", "chain", "interservice"} {
		for _, series := range []string{"_sites_total 0\n", "_errors_total 0\n", "_seconds_count 0\n"} {
			if want := "\nmeasure_" + stage + series; !strings.Contains(string(body), want) {
				t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
			}
		}
	}
}
