package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
)

// fakeRun hand-builds a tiny two-site 2020 world with a known dependency
// structure, so endpoint tests control every name and number:
//
//	a.com (rank 1): DNS single-third dns1.com, CDN multi {cdn1.com, cdn2.com}, CA third ca1.com
//	b.com (rank 2): DNS multi {dns1.com, dns2.com}
//	cdn1.com (CDN provider) critically depends on dns1.com for DNS
func fakeRun() *analysis.Run {
	sites := []*core.Site{
		{
			Name: "a.com", Rank: 1,
			Deps: map[core.Service]core.Dep{
				core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1.com"}},
				core.CDN: {Class: core.ClassMultiThird, Providers: []string{"cdn1.com", "cdn2.com"}},
				core.CA:  {Class: core.ClassSingleThird, Providers: []string{"ca1.com"}},
			},
		},
		{
			Name: "b.com", Rank: 2,
			Deps: map[core.Service]core.Dep{
				core.DNS: {Class: core.ClassMultiThird, Providers: []string{"dns1.com", "dns2.com"}},
			},
		},
	}
	providers := []*core.Provider{
		{Name: "dns1.com", Service: core.DNS, Deps: map[core.Service]core.Dep{}},
		{Name: "dns2.com", Service: core.DNS, Deps: map[core.Service]core.Dep{}},
		{Name: "cdn2.com", Service: core.CDN, Deps: map[core.Service]core.Dep{}},
		{Name: "ca1.com", Service: core.CA, Deps: map[core.Service]core.Dep{}},
		{
			Name: "cdn1.com", Service: core.CDN,
			Deps: map[core.Service]core.Dep{
				core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1.com"}},
			},
		},
	}
	return &analysis.Run{
		Scale: 2,
		Y2020: &analysis.SnapshotData{
			Snapshot: ecosystem.Y2020,
			Graph:    core.NewGraph(sites, providers),
			Results:  &measure.Results{},
		},
	}
}

func instantBuilder(calls *atomic.Int64) Builder {
	return func(ctx context.Context) (*analysis.Run, error) {
		calls.Add(1)
		return fakeRun(), nil
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestCoalescing pins the singleflight property: N concurrent cold requests
// trigger exactly one build and all observe the same snapshot.
func TestCoalescing(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		calls.Add(1)
		<-release
		return fakeRun(), nil
	})

	const n = 32
	snaps := make([]*Snapshot, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			snaps[i], errs[i] = m.Get(context.Background())
		}(i)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let every goroutine reach the join
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("build count = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Get[%d]: %v", i, errs[i])
		}
		if snaps[i] != snaps[0] {
			t.Fatalf("Get[%d] returned a different snapshot pointer", i)
		}
	}
	if snaps[0].Version != 1 {
		t.Errorf("first snapshot version = %d, want 1", snaps[0].Version)
	}
}

// TestFailedBuildIsRetried is the regression test for the poisoned
// sync.Once: the first build fails (injected), the failure is surfaced and
// backoff-gated — and once the window elapses the next request rebuilds and
// succeeds, instead of the error being pinned for the process lifetime.
func TestFailedBuildIsRetried(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("injected build failure")
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return fakeRun(), nil
	})
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	if _, err := m.Get(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("first Get = %v, want the injected failure", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("build count after failure = %d", calls.Load())
	}

	// Inside the backoff window: the failure is reported without rebuilding.
	if _, err := m.Get(context.Background()); !errors.Is(err, boom) || calls.Load() != 1 {
		t.Fatalf("backoff-gated Get = %v (builds %d), want gated failure with no rebuild", err, calls.Load())
	}

	now = now.Add(2 * time.Second) // past the 1s initial backoff
	snap, err := m.Get(context.Background())
	if err != nil {
		t.Fatalf("post-backoff Get = %v, want success", err)
	}
	if calls.Load() != 2 || snap.Version != 1 {
		t.Errorf("builds = %d, version = %d; want 2 and 1", calls.Load(), snap.Version)
	}
}

// TestBackoffGrows pins the exponential failure gate.
func TestBackoffGrows(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		calls.Add(1)
		return nil, errors.New("always failing")
	}, WithBackoff(time.Second, 8*time.Second))
	now := time.Unix(0, 0)
	m.now = func() time.Time { return now }

	wantGaps := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second}
	for i, gap := range wantGaps {
		if _, err := m.Get(context.Background()); err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
		m.mu.Lock()
		got := m.nextTry.Sub(now)
		m.mu.Unlock()
		if got != gap {
			t.Fatalf("after failure %d: backoff = %v, want %v", i+1, got, gap)
		}
		now = now.Add(gap)
	}
	if calls.Load() != int64(len(wantGaps)) {
		t.Errorf("build attempts = %d, want %d", calls.Load(), len(wantGaps))
	}
}

// TestShutdownCancelsBuild proves a build in flight dies with the server
// lifecycle context — neither the old context.Background() detachment nor a
// goroutine leak.
func TestShutdownCancelsBuild(t *testing.T) {
	lifecycle, stop := context.WithCancel(context.Background())
	buildExited := make(chan error, 1)
	m := NewManager(lifecycle, func(ctx context.Context) (*analysis.Run, error) {
		<-ctx.Done() // a long measurement honoring its context
		buildExited <- ctx.Err()
		return nil, ctx.Err()
	})

	done := make(chan error, 1)
	go func() {
		_, err := m.Get(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the build start
	stop()                            // SIGTERM

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get after shutdown = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get did not return after lifecycle cancellation")
	}
	select {
	case err := <-buildExited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("builder saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("builder goroutine never observed the cancellation")
	}

	// After shutdown, new attempts fail fast instead of starting builds.
	if _, err := m.Get(context.Background()); err == nil {
		t.Fatal("Get on a dead lifecycle succeeded")
	}
}

// TestRequestCancellationDetaches proves a caller abandoning a cold request
// detaches without killing the shared build: the build completes and serves
// the next caller.
func TestRequestCancellationDetaches(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		calls.Add(1)
		<-release
		return fakeRun(), nil
	})

	rctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Get(rctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get = %v, want context.Canceled", err)
	}

	close(release) // the build was never aborted; let it finish
	snap, err := m.Get(context.Background())
	if err != nil || snap == nil {
		t.Fatalf("Get after detached cancellation = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("build count = %d, want 1 (the detached build served the second caller)", calls.Load())
	}
}

// TestPrewarm builds in the background, retrying a transient failure.
func TestPrewarm(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return fakeRun(), nil
	}, WithBackoff(time.Millisecond, 4*time.Millisecond))
	m.Prewarm()
	deadline := time.Now().Add(5 * time.Second)
	for m.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("prewarm never published a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() != 2 {
		t.Errorf("prewarm build attempts = %d, want 2 (one failure, one success)", calls.Load())
	}
}

func testMux(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Register(mux, m)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestQueryEndpoints table-tests the /v1 API against the handcrafted world.
func TestQueryEndpoints(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls), WithSeed(7))
	srv := testMux(t, m)

	// Before any query: /v1/snapshot reports not-ready without building.
	code, body := get(t, srv.URL+"/v1/snapshot")
	if code != http.StatusOK || !strings.Contains(string(body), `"ready": false`) {
		t.Fatalf("cold /v1/snapshot = %d: %s", code, body)
	}
	if calls.Load() != 0 {
		t.Fatal("/v1/snapshot triggered a build")
	}

	tests := []struct {
		name     string
		url      string
		want     int
		contains []string
	}{
		{"site listing", "/v1/sites", http.StatusOK, []string{`"total": 2`, "a.com", "b.com"}},
		{"site listing paged", "/v1/sites?offset=1&limit=1", http.StatusOK, []string{`"total": 2`, "b.com"}},
		{"site listing bad limit", "/v1/sites?limit=nope", http.StatusBadRequest, []string{"bad limit"}},
		{"site listing bad offset", "/v1/sites?offset=-2", http.StatusBadRequest, []string{"bad offset"}},
		{"site listing bad snapshot", "/v1/sites?snapshot=1999", http.StatusBadRequest, []string{"unknown snapshot"}},
		{"site listing unmeasured snapshot", "/v1/sites?snapshot=2016", http.StatusBadRequest, []string{"not measured"}},
		{"site breakdown", "/v1/sites/a.com", http.StatusOK, []string{`"site": "a.com"`, `"rank": 1`, "single-third", "dns1.com"}},
		{"site breakdown explicit snapshot", "/v1/sites/b.com?snapshot=2020", http.StatusOK, []string{`"site": "b.com"`, "multi-third"}},
		{"unknown site", "/v1/sites/nope.example", http.StatusNotFound, []string{"unknown site"}},
		{"site bad snapshot", "/v1/sites/a.com?snapshot=1999", http.StatusBadRequest, []string{"unknown snapshot"}},
		{"provider ranking default", "/v1/providers", http.StatusOK, []string{`"metric": "cp"`, `"service": "dns"`, "dns1.com"}},
		{"provider ranking by impact", "/v1/providers?metric=ip&top=1", http.StatusOK, []string{`"metric": "ip"`, `"rank": 1`}},
		{"provider ranking cdn", "/v1/providers?service=cdn", http.StatusOK, []string{"cdn1.com", "cdn2.com"}},
		{"provider ranking bad metric", "/v1/providers?metric=zz", http.StatusBadRequest, []string{"unknown metric"}},
		{"provider ranking bad service", "/v1/providers?service=smtp", http.StatusBadRequest, []string{"unknown service"}},
		{"provider ranking bad top", "/v1/providers?top=-1", http.StatusBadRequest, []string{"bad top"}},
		{"snapshot meta", "/v1/snapshot", http.StatusOK, []string{`"ready": true`, `"version": 1`, `"seed": 7`}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(t, srv.URL+tc.url)
			if code != tc.want {
				t.Fatalf("GET %s = %d, want %d: %s", tc.url, code, tc.want, body)
			}
			for _, sub := range tc.contains {
				if !strings.Contains(string(body), sub) {
					t.Errorf("GET %s: response missing %q:\n%s", tc.url, sub, body)
				}
			}
		})
	}

	if calls.Load() != 1 {
		t.Errorf("build count after the table = %d, want 1 (all queries shared one snapshot)", calls.Load())
	}

	// dns1.com's concentration must count cdn1.com's transitive users:
	// both sites depend on it (a.com via DNS and via cdn1.com, b.com direct).
	code, body = get(t, srv.URL+"/v1/providers?metric=cp&top=1")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/providers = %d", code)
	}
	var ranking struct {
		Providers []ProviderRank `json:"providers"`
	}
	if err := json.Unmarshal(body, &ranking); err != nil {
		t.Fatal(err)
	}
	if len(ranking.Providers) != 1 || ranking.Providers[0].Name != "dns1.com" || ranking.Providers[0].Concentration != 2 {
		t.Errorf("top DNS provider = %+v, want dns1.com with C_p 2", ranking.Providers)
	}
}

// TestMethodGuards: the Go 1.22 mux patterns reject non-GET methods on the
// /v1 endpoints, and /incident rejects anything but GET/POST.
func TestMethodGuards(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	srv := testMux(t, m)
	for _, url := range []string{"/v1/sites", "/v1/sites/a.com", "/v1/providers", "/v1/snapshot"} {
		resp, err := http.Post(srv.URL+url, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", url, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/incident", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /incident = %d, want 405", resp.StatusCode)
	}
}

// TestIncidentOnFakeWorld drives /incident against the handcrafted graph.
func TestIncidentOnFakeWorld(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	srv := testMux(t, m)

	// Listing needs no snapshot build.
	code, body := get(t, srv.URL+"/incident")
	if code != http.StatusOK || !strings.Contains(string(body), "dyn-replay") {
		t.Fatalf("GET /incident = %d: %s", code, body)
	}
	if calls.Load() != 0 {
		t.Fatal("preset listing triggered a build")
	}

	// A custom scenario against a provider that exists in the fake world.
	resp, err := http.Post(srv.URL+"/incident", "application/json",
		strings.NewReader(`{"name":"dns1-down","targets":{"providers":["dns1.com"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /incident = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "dns1-down") {
		t.Errorf("incident report missing scenario name: %s", body)
	}

	// The dyn-replay preset names the 2016 snapshot, which the fake run did
	// not measure: a 400 (the request does not apply), not a 500.
	code, body = get(t, srv.URL+"/incident?preset=dyn-replay")
	if code != http.StatusBadRequest {
		t.Errorf("GET ?preset=dyn-replay on 2020-only run = %d: %s", code, body)
	}
}

// TestBuildFailureIs503 maps a failed cold build onto 503 at the API edge.
func TestBuildFailureIs503(t *testing.T) {
	m := NewManager(context.Background(), func(ctx context.Context) (*analysis.Run, error) {
		return nil, errors.New("injected")
	})
	srv := testMux(t, m)
	code, body := get(t, srv.URL+"/v1/sites")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "injected") {
		t.Errorf("GET /v1/sites with failing builder = %d: %s", code, body)
	}
}

// TestConcurrentQueriesWithSwap hammers every endpoint while deltas
// republish snapshots underneath — run under -race this pins the lock-free
// publish: readers only ever see a fully built snapshot.
func TestConcurrentQueriesWithSwap(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	srv := testMux(t, m)
	if _, err := m.Get(context.Background()); err != nil {
		t.Fatal(err)
	}

	urls := []string{
		"/v1/sites", "/v1/sites/a.com", "/v1/providers?metric=ip", "/v1/snapshot",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.URL + urls[(i+j)%len(urls)])
				if err != nil {
					failures.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(i)
	}
	var lastVersion uint64
	for i := 0; i < 5; i++ {
		snap, err := m.ApplyDelta("2020", swapDelta(i), m.Current().Version)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		lastVersion = snap.Version
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Errorf("%d requests failed during snapshot swaps", failures.Load())
	}
	if lastVersion != 6 {
		t.Errorf("final version = %d, want 6 (1 initial + 5 deltas)", lastVersion)
	}
}

// TestWriteJSONCountsEncodeFailures: a write error must move the telemetry
// counter and hit the log hook instead of vanishing.
func TestWriteJSONCountsEncodeFailures(t *testing.T) {
	oldLogf := logf
	var logged atomic.Int64
	logf = func(format string, args ...any) { logged.Add(1) }
	defer func() { logf = oldLogf }()

	before := telWriteErrors.Value()
	writeJSON(&failingWriter{header: make(http.Header)}, http.StatusOK, map[string]string{"k": "v"})
	if telWriteErrors.Value() != before+1 {
		t.Errorf("serve_write_errors_total moved %d, want +1", telWriteErrors.Value()-before)
	}
	if logged.Load() != 1 {
		t.Errorf("log hook called %d times, want 1", logged.Load())
	}
}

type failingWriter struct {
	header http.Header
}

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("socket gone") }
