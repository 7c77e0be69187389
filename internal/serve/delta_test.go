package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"depscope/internal/core"
)

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// swapDelta alternates b.com's DNS provider so repeated applications always
// validate: even rounds swap dns1→dns2, odd rounds swap back.
func swapDelta(round int) core.Delta {
	from, to := "dns1.com", "dns2.com"
	if round%2 == 1 {
		from, to = to, from
	}
	return core.Delta{Ops: []core.Op{
		{Kind: core.OpSwap, Name: "b.com", Service: core.DNS, From: from, To: to},
	}}
}

func TestApplyDeltaRepublishes(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	s1, err := m.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s2, err := m.ApplyDelta("2020", swapDelta(0), s1.Version)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != s1.Version+1 || m.Current() != s2 {
		t.Fatalf("republish: v%d → v%d, current == new: %v", s1.Version, s2.Version, m.Current() == s2)
	}
	if calls.Load() != 1 {
		t.Fatalf("ApplyDelta triggered %d builds, want the initial 1 only", calls.Load())
	}
	info := s2.delta
	if info == nil || info.BaseVersion != s1.Version || info.Snapshot != "2020" || len(info.Diff.Providers) == 0 {
		t.Fatalf("delta info = %+v", info)
	}
	// The old snapshot is untouched: b.com still names dns1.com there.
	oldSite := s1.Run.Y2020.Graph.Site("b.com")
	if !contains(oldSite.Deps[core.DNS].Providers, "dns1.com") {
		t.Fatal("ApplyDelta mutated the predecessor snapshot's graph")
	}
	newSite := s2.Run.Y2020.Graph.Site("b.com")
	if contains(newSite.Deps[core.DNS].Providers, "dns1.com") || !contains(newSite.Deps[core.DNS].Providers, "dns2.com") {
		t.Fatalf("patched graph b.com DNS = %v", newSite.Deps[core.DNS].Providers)
	}
	// Rankings were recomputed at publish time: dns2.com gained b.com.
	ranked := s2.views["2020"].rankings[rankKey{core.DNS, false}]
	var dns2 *ProviderRank
	for i := range ranked {
		if ranked[i].Name == "dns2.com" {
			dns2 = &ranked[i]
		}
	}
	if dns2 == nil || dns2.Concentration != 1 {
		t.Fatalf("republished ranking for dns2.com = %+v", dns2)
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestApplyDeltaVersionConflict(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	s1, err := m.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDelta("2020", swapDelta(0), s1.Version+7); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale base version: err = %v, want ErrVersionConflict", err)
	}
	if m.Current() != s1 {
		t.Fatal("conflicting delta still republished")
	}
}

func TestApplyDeltaValidationLeavesSnapshot(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	s1, err := m.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bad := core.Delta{Ops: []core.Op{{Kind: core.OpSiteRemove, Name: "nope.example"}}}
	if _, err := m.ApplyDelta("2020", bad, 0); err == nil {
		t.Fatal("invalid delta applied")
	}
	if m.Current() != s1 {
		t.Fatal("failed delta republished a snapshot")
	}
	if _, err := m.ApplyDelta("", core.Delta{Ops: bad.Ops}, 0); err == nil {
		t.Fatal("default snapshot name accepted an invalid delta")
	}
	if _, err := m.ApplyDelta("2016", swapDelta(0), 0); err == nil {
		t.Fatal("delta against an unmeasured snapshot succeeded")
	}
}

// TestApplyDeltaBeforeFirstBuild: a delta with nothing published is
// ErrNoSnapshot, and never invokes the builder.
func TestApplyDeltaBeforeFirstBuild(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	if _, err := m.ApplyDelta("2020", swapDelta(0), 0); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("ApplyDelta cold = %v, want ErrNoSnapshot", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("ApplyDelta triggered %d builds, want 0", calls.Load())
	}
}

// TestDeltaEndpoints drives POST /v1/delta and GET /v1/diff end to end.
func TestDeltaEndpoints(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls), WithDeltaAPI())
	srv := testMux(t, m)
	if _, err := m.Get(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Diff before any delta: 404 with a diagnostic.
	code, body := get(t, srv.URL+"/v1/diff")
	if code != http.StatusNotFound || !strings.Contains(string(body), "from scratch") {
		t.Fatalf("GET /v1/diff pre-delta = %d: %s", code, body)
	}

	req := `{"snapshot":"2020","base_version":1,"delta":{"ops":[
	  {"op":"swap","name":"b.com","service":"dns","from":"dns1.com","to":"dns2.com"}]}}`
	code, body = postJSON(t, srv.URL+"/v1/delta", req)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/delta = %d: %s", code, body)
	}
	var applied struct {
		Version uint64     `json:"version"`
		Delta   *DeltaInfo `json:"delta"`
	}
	if err := json.Unmarshal(body, &applied); err != nil {
		t.Fatal(err)
	}
	if applied.Version != 2 || applied.Delta == nil || applied.Delta.BaseVersion != 1 {
		t.Fatalf("apply response = %s", body)
	}

	// b.com was multi {dns1, dns2}; the swap dedups it to {dns2}, so the
	// change surface is dns1.com losing one user.
	code, body = get(t, srv.URL+"/v1/diff")
	if code != http.StatusOK || !strings.Contains(string(body), `"name": "dns1.com"`) ||
		!strings.Contains(string(body), `"delta_concentration": -1`) {
		t.Fatalf("GET /v1/diff = %d: %s", code, body)
	}

	// Replayed against the already-advanced version: 409.
	code, body = postJSON(t, srv.URL+"/v1/delta", req)
	if code != http.StatusConflict {
		t.Fatalf("stale POST /v1/delta = %d: %s", code, body)
	}

	// Malformed bodies: unknown field, empty ops, bad op, trailing data.
	for _, bad := range []string{
		`{"snapshoot":"2020","delta":{"ops":[]}}`,
		`{"delta":{"ops":[]}}`,
		`{"delta":{"ops":[{"op":"nope"}]}}`,
		`{"delta":{"ops":[{"op":"site-remove","name":"b.com"}]}}{}`,
	} {
		if code, body := postJSON(t, srv.URL+"/v1/delta", bad); code != http.StatusBadRequest {
			t.Errorf("POST %q = %d: %s", bad, code, body)
		}
	}
}

// TestDeltaEndpointGated: without WithDeltaAPI the endpoint answers 403 and
// applies nothing.
func TestDeltaEndpointGated(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls))
	srv := testMux(t, m)
	if _, err := m.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := `{"delta":{"ops":[{"op":"swap","name":"b.com","service":"dns","from":"dns1.com","to":"dns2.com"}]}}`
	code, body := postJSON(t, srv.URL+"/v1/delta", req)
	if code != http.StatusForbidden || !strings.Contains(string(body), "-allow-delta") {
		t.Fatalf("ungated POST /v1/delta = %d: %s", code, body)
	}
	if m.Current().Version != 1 {
		t.Fatal("gated endpoint still republished")
	}
}

// TestConcurrentDeltasWithQueries hammers ApplyDelta concurrently with every
// /v1 read endpoint. Under -race this pins the publish discipline: readers
// always observe a fully built snapshot, versions only move forward, and a
// site breakdown never shows a half-applied arrangement (b.com always names
// at least one DNS provider; a torn snapshot would surface as a 500, an
// empty arrangement, or a race report).
func TestConcurrentDeltasWithQueries(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(context.Background(), instantBuilder(&calls), WithDeltaAPI())
	srv := testMux(t, m)
	if _, err := m.Get(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	// Readers: every endpoint, plus a version-monotonicity observer.
	urls := []string{"/v1/sites", "/v1/sites/b.com", "/v1/providers?metric=ip", "/v1/snapshot", "/v1/diff"}
	for i := 0; i < 6; i++ {
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
				url := urls[(i+j)%len(urls)]
				resp, err := client.Get(srv.URL + url)
				if err != nil {
					fail("GET %s: %v", url, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// /v1/diff is 404 until the first delta lands; everything else
				// must always succeed.
				if resp.StatusCode != http.StatusOK &&
					!(url == "/v1/diff" && resp.StatusCode == http.StatusNotFound) {
					fail("GET %s = %d: %s", url, resp.StatusCode, body)
					return
				}
				if url == "/v1/sites/b.com" && resp.StatusCode == http.StatusOK {
					if !strings.Contains(string(body), "dns1.com") && !strings.Contains(string(body), "dns2.com") {
						fail("torn read: b.com lost its DNS arrangement entirely:\n%s", body)
						return
					}
				}
			}
		}(i)
	}
	var lastVersion atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.Current()
			if s == nil {
				fail("Current() == nil after first build")
				return
			}
			for {
				prev := lastVersion.Load()
				if s.Version >= prev {
					if lastVersion.CompareAndSwap(prev, s.Version) {
						break
					}
					continue
				}
				fail("version went backwards: %d after %d", s.Version, prev)
				return
			}
		}
	}()

	// Writer: 40 alternating swaps through the public API.
	const rounds = 40
	for r := 0; r < rounds; r++ {
		snap, err := m.ApplyDelta("2020", swapDelta(r), 0)
		if err != nil {
			t.Fatalf("ApplyDelta round %d: %v", r, err)
		}
		if snap.Version != uint64(r+2) {
			t.Fatalf("round %d published version %d, want %d", r, snap.Version, r+2)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d reader failures during concurrent deltas", failures.Load())
	}
	if got := m.Current().Version; got != rounds+1 {
		t.Fatalf("final version = %d, want %d", got, rounds+1)
	}
}
