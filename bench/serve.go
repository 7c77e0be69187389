package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"depscope/internal/analysis"
)

// The serve workload: depserver as a subprocess under an open-loop ladder
// of offered rates, reads in a fixed mix plus a steady trickle of writes.

// serveLadder is the offered rates (requests/s) and the share of the
// measured phase each is offered for. The end-to-end read latency is taken
// at refStep, which gets the largest share so that it spans the most time.
var serveLadder = []struct{ rate, share float64 }{
	{500, 0.15}, {1000, 0.40}, {2000, 0.15}, {4000, 0.15}, {8000, 0.15},
}

const refStep = 1

const (
	serveWarm       = time.Second
	serveWriteEvery = 500 * time.Millisecond
	// serveDrain bounds how long the ladder may run past its schedule
	// before outstanding requests are abandoned as failed.
	serveDrain = 20 * time.Second
	// clockTick is the kernel's CPU-time unit in /proc/<pid>/stat.
	clockTick = 10 * time.Millisecond
)

// server is one running depserver.
type server struct {
	cmd        *exec.Cmd
	base       string
	parentPeak int64         // the harness's peak RSS (KiB) when it started
	done       chan struct{} // closed once the process has been waited for
	err        error         // Wait's result, valid after done
	stderr     bytes.Buffer
}

// startServer starts depserver and waits until its snapshot is published.
func startServer(ctx context.Context, s *session, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	sv := &server{base: "http://127.0.0.1:" + port, done: make(chan struct{})}
	sv.cmd = exec.Command(filepath.Join(s.bin, "depserver"),
		"-scale", strconv.Itoa(s.scale), "-seed", strconv.FormatInt(s.seed, 10),
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:"+port, "-prewarm", "-allow-delta")
	sv.cmd.Stderr = &sv.stderr
	sv.parentPeak = selfUsage().Maxrss
	if err := sv.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sv.err = sv.cmd.Wait()
		close(sv.done)
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var meta struct {
			Ready bool `json:"ready"`
		}
		if err := getJSON(ctx, client, sv.base+"/v1/snapshot", &meta); err == nil && meta.Ready {
			return sv, nil
		}
		select {
		case <-sv.done:
			return nil, fmt.Errorf("depserver exited before its snapshot was ready: %v: %s", sv.err, tailOf(sv.stderr.String()))
		case <-ctx.Done():
			sv.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			sv.stop()
			return nil, errors.New("depserver snapshot not ready after 2m")
		}
	}
}

// stop terminates the server, waits for it, and returns its peak RSS (MB).
func (sv *server) stop() (float64, error) {
	sv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sv.done:
	case <-time.After(10 * time.Second):
		sv.cmd.Process.Kill()
		<-sv.done
	}
	return childPeakMB(sv.cmd.ProcessState.SysUsage().(*syscall.Rusage), sv.parentPeak)
}

// cpuTicks reads the server's user+system CPU time so far, in clock ticks.
func (sv *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sv.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	return u + st, errors.Join(err1, err2)
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is the server's per-endpoint handler totals and CPU time at one
// step boundary.
type scrape struct {
	sum   map[string]float64 // seconds, keyed by kind name
	count map[string]float64
	ticks int64
}

// scrapeMetrics reads the serve_<kind>_seconds and delta_apply_seconds
// sums and counts from /metrics.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (sum, count map[string]float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	sum, count = make(map[string]float64), make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		var into map[string]float64
		switch {
		case strings.HasSuffix(name, "_seconds_sum"):
			into, name = sum, strings.TrimSuffix(name, "_seconds_sum")
		case strings.HasSuffix(name, "_seconds_count"):
			into, name = count, strings.TrimSuffix(name, "_seconds_count")
		default:
			continue
		}
		if name == "delta_apply" {
			name = "delta.apply"
		} else if k, ok := strings.CutPrefix(name, "serve_"); ok {
			name = k
		} else {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			into[name] = v
		}
	}
	return sum, count, sc.Err()
}

// writeTarget is the site the writes flip between two DNS providers.
type writeTarget struct{ site, from, to string }

// findWriteTarget picks the best-ranked site with a single third-party DNS
// provider and a second DNS provider to swap it to.
func findWriteTarget(ctx context.Context, client *http.Client, base string, names []string) (*writeTarget, error) {
	var top struct {
		Providers []struct {
			Name string `json:"name"`
		} `json:"providers"`
	}
	if err := getJSON(ctx, client, base+"/v1/providers?service=dns&top=5", &top); err != nil {
		return nil, err
	}
	for _, name := range names[:min(len(names), 500)] {
		var v analysis.SiteView
		if err := getJSON(ctx, client, base+"/v1/sites/"+name, &v); err != nil {
			return nil, err
		}
		for _, d := range v.Services {
			if d.Service != "dns" || d.Class != "single-third" || len(d.Providers) != 1 {
				continue
			}
			for _, p := range top.Providers {
				if p.Name != d.Providers[0] {
					return &writeTarget{name, d.Providers[0], p.Name}, nil
				}
			}
		}
	}
	return nil, errors.New("no site with a single third-party DNS provider among the first 500")
}

func deltaBody(t *writeTarget, seq int) []byte {
	from, to := t.from, t.to
	if seq%2 == 1 {
		from, to = to, from
	}
	b, _ := json.Marshal(map[string]any{"delta": map[string]any{"ops": []map[string]string{
		{"op": "swap", "name": t.site, "service": "dns", "from": from, "to": to}}}})
	return b
}

// runServe sets up by starting depserver setupReps times, then offers the
// ladder to the last one over at most nproc keep-alive connections.
func runServe(ctx context.Context, s *session) error {
	conns := min(2, runtime.NumCPU())
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	var sv *server
	var setup, rss []float64
	var err error
	for i := 0; i < setupReps; i++ {
		if sv != nil {
			mb, err := sv.stop()
			if err != nil {
				return err
			}
			rss = append(rss, mb)
		}
		start := time.Now()
		if sv, err = startServer(ctx, s, client); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.stop()
		}
	}()
	s.record("setup_s", median(setup), "s", len(setup))

	// The expected answers come from the same pipeline run in-process,
	// after the servers have started (see runReport on peak RSS).
	var wantNames []string
	var wantIncident []byte
	var queries, hits int64
	_, err = s.reps(1, func(sp span) error {
		ref, err := runReference(ctx, pipelineOpts{Scale: s.scale, Seed: s.seed, Preset: "dyn-replay"}, sp)
		if err != nil {
			return err
		}
		queries, hits = checkSnapshots(s, ref.Run, 2)
		s.addLayers(ref.Layers)
		if wantNames, err = analysis.SiteNames(ref.Run, "2020"); err != nil {
			return err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(ref.Incident)
		wantIncident = buf.Bytes()
		return err
	})
	if err != nil {
		return err
	}
	s.recordResolver(queries, hits)
	runtime.GC()

	var meta struct {
		Version      uint64  `json:"version"`
		BuildSeconds float64 `json:"build_seconds"`
	}
	if err := getJSON(ctx, client, sv.base+"/v1/snapshot", &meta); err != nil {
		return err
	}
	s.record("serve.build_s", meta.BuildSeconds, "s", 0)
	var names []string
	for {
		var page struct {
			Sites []string `json:"sites"`
		}
		if err := getJSON(ctx, client, fmt.Sprintf("%s/v1/sites?offset=%d&limit=10000", sv.base, len(names)), &page); err != nil {
			return err
		}
		if len(page.Sites) == 0 {
			break
		}
		names = append(names, page.Sites...)
	}
	s.check(slices.Equal(names, wantNames), "server lists %d sites, in-process run %d (or a different order)",
		len(names), len(wantNames))
	target, err := findWriteTarget(ctx, client, sv.base, names)
	if err != nil {
		return err
	}

	l := ladder{Warm: serveWarm, WriteEvery: serveWriteEvery}
	for _, st := range serveLadder {
		l.Rates = append(l.Rates, st.rate)
		l.Durs = append(l.Durs, time.Duration(st.share*float64(s.dur())))
	}
	if s.smoke {
		l.Warm = l.Durs[0]
	}
	reqs := plan(s.seed, len(names), l)
	version := meta.Version
	exec := func(ctx context.Context, r *request) (int, []byte, error) {
		var req *http.Request
		var err error
		if r.Kind == kindDelta {
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, sv.base+"/v1/delta", bytes.NewReader(deltaBody(target, r.Arg)))
		} else {
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, sv.base+readPath(r, names), nil)
		}
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	// check runs on the worker that made the request; writes all run on
	// worker 0, so version is only touched there until drive returns.
	check := func(r *request, status int, body []byte, err error) bool {
		if err != nil || status/100 != 2 || !json.Valid(body) {
			return false
		}
		switch r.Kind {
		case kindSite:
			var v struct {
				Site string `json:"site"`
			}
			return json.Unmarshal(body, &v) == nil && v.Site == names[r.Arg]
		case kindIncident:
			return bytes.Equal(body, wantIncident)
		case kindDelta:
			var v struct {
				Version uint64 `json:"version"`
			}
			if json.Unmarshal(body, &v) != nil || v.Version != version+1 {
				return false
			}
			version = v.Version
		}
		return true
	}

	phaseCtx, cancel := context.WithTimeout(ctx, l.end(len(l.Rates)-1)+serveDrain)
	defer cancel()
	clk := wallClock{time.Now()}
	scrapes := make(chan []scrape, 1)
	go func() {
		// One scrape at each step boundary, on the load's own connections.
		var out []scrape
		for i := -1; i < len(l.Rates); i++ {
			clk.SleepUntil(l.end(i))
			sum, count, err := scrapeMetrics(phaseCtx, client, sv.base)
			ticks, terr := sv.cpuTicks()
			if err != nil || terr != nil {
				break
			}
			out = append(out, scrape{sum: sum, count: count, ticks: ticks})
		}
		scrapes <- out
	}()
	outs := drive(phaseCtx, reqs, conns, clk, exec, check)
	sc := <-scrapes
	s.check(len(sc) == len(l.Rates)+1, "scraped /metrics at %d of %d step boundaries", len(sc), len(l.Rates)+1)

	// Leave the flipped site as it was found, and check it is.
	writes := 0
	for _, r := range reqs {
		if r.Kind == kindDelta {
			writes++
		}
	}
	if writes%2 == 1 {
		r := request{Kind: kindDelta, Arg: writes}
		status, body, err := exec(ctx, &r)
		s.check(check(&r, status, body, err), "final write-back: status %d, %v", status, err)
	}
	var site analysis.SiteView
	err = getJSON(ctx, client, sv.base+"/v1/sites/"+target.site, &site)
	restored := false
	for _, d := range site.Services {
		restored = restored || (d.Service == "dns" && slices.Equal(d.Providers, []string{target.from}))
	}
	s.check(err == nil && restored, "site %s should end with DNS provider %s: %+v %v", target.site, target.from, site.Services, err)

	stopped = true
	mb, err := sv.stop()
	if err != nil {
		return err
	}
	rss = append(rss, mb)
	s.record("peak_rss_mb", median(rss), "MB", len(rss))
	reportServe(s, l, reqs, outs, sc)
	return nil
}

// readPath is the URL path of a read request.
func readPath(r *request, names []string) string {
	switch r.Kind {
	case kindSite:
		return "/v1/sites/" + names[r.Arg]
	case kindProviders:
		return [2]string{"/v1/providers?metric=cp&top=10", "/v1/providers?metric=ip&top=10"}[r.Arg]
	case kindSnapshot:
		return "/v1/snapshot"
	case kindSites:
		return fmt.Sprintf("/v1/sites?offset=%d&limit=100", r.Arg*100)
	}
	return "/incident?preset=dyn-replay"
}

// reportServe turns the ladder's outcomes and scrapes into metrics.
func reportServe(s *session, l ladder, reqs []request, outs []outcome, sc []scrape) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	type stepData struct {
		all, reads, incident, lag []float64
		failed, late              int
	}
	steps := make([]stepData, len(l.Rates))
	var writes []float64
	failed := 0
	for i, r := range reqs {
		o := outs[i]
		if !o.OK {
			failed++
		}
		if r.Kind == kindDelta && o.OK {
			writes = append(writes, ms(o.Latency()))
		}
		if r.Step < 0 {
			continue
		}
		st := &steps[r.Step]
		end := l.end(r.Step)
		if !o.OK {
			st.failed++
			continue
		}
		lat := ms(o.Latency())
		st.all = append(st.all, lat)
		st.lag = append(st.lag, ms(o.Lag(r)))
		if r.Kind != kindDelta {
			st.reads = append(st.reads, lat)
		}
		if r.Kind == kindIncident {
			st.incident = append(st.incident, lat)
		}
		if o.Done > end {
			st.late++
		}
	}
	s.count(len(reqs), failed, "%d of %d requests failed or returned a wrong answer", failed, len(reqs))

	ladderSteps := make([]ladderStep, len(steps))
	for i, st := range steps {
		p99, _ := percentile(st.all, 0.99)
		lag, _ := percentile(st.lag, 0.99)
		n := len(st.all) + st.failed
		ladderSteps[i] = ladderStep{P99: p99, Failed: st.failed, Backlog: st.late > 10+n/50, LagP99: lag}
		name := fmt.Sprintf("ladder.%grps.", l.Rates[i])
		s.record(name+"read_p50_ms", median(st.reads), "ms", len(st.reads))
		s.record(name+"p99_ms", p99, "ms", len(st.all))
		s.record(name+"lag_p99_ms", lag, "ms", len(st.lag))
		s.record(name+"outstanding_at_end", float64(st.late), "count", n)
	}
	k := knee(ladderSteps)
	rps := 0.0
	if k >= 0 {
		rps = l.Rates[k]
	}
	s.record("max_rps_at_slo", rps, "1/s", 0)
	invalid := 0
	for i := 0; i <= k; i++ {
		if ladderSteps[i].LagP99 >= maxLagMs {
			invalid++
			fmt.Fprintf(os.Stderr, "%s: ladder step %g rps is invalid: generator lag p99 %.1f ms\n",
				s.w.name, l.Rates[i], ladderSteps[i].LagP99)
		}
	}
	s.record("ladder.invalid_steps", float64(invalid), "count", k+1)

	ref := steps[refStep]
	s.record("op_p50_ms", median(ref.reads), "ms", len(ref.reads))
	if q, v, ok := tail(ref.reads); ok {
		s.record(fmt.Sprintf("read_p%g_ms", 100*q), v, "ms", len(ref.reads))
	}
	if q, v, ok := tail(ref.incident); ok {
		s.record(fmt.Sprintf("incident_p%g_ms", 100*q), v, "ms", len(ref.incident))
	}
	s.record("write_p50_ms", median(writes), "ms", len(writes))
	s.record("loadgen.lag_p99_ms", ladderSteps[refStep].LagP99, "ms", len(ref.lag))

	if len(sc) != len(l.Rates)+1 {
		return
	}
	a, b := sc[refStep], sc[refStep+1]
	var handler, handled float64
	for _, name := range kindNames[:kindDelta] {
		if n := b.count[name] - a.count[name]; n > 0 {
			s.record("serve."+name+".handler_ms", 1000*(b.sum[name]-a.sum[name])/n, "ms", int(n))
			handler += b.sum[name] - a.sum[name]
			handled += n
		}
	}
	first, last := sc[0], sc[len(sc)-1]
	if n := last.count["delta"] - first.count["delta"]; n > 0 {
		s.record("serve.delta.handler_ms", 1000*(last.sum["delta"]-first.sum["delta"])/n, "ms", int(n))
	}
	if n := last.count["delta.apply"] - first.count["delta.apply"]; n > 0 {
		s.record("serve.delta.apply_ms", 1000*(last.sum["delta.apply"]-first.sum["delta.apply"])/n, "ms", int(n))
	}
	if handled > 0 && len(ref.reads) > 0 {
		mean := 0.0
		for _, v := range ref.reads {
			mean += v
		}
		mean /= float64(len(ref.reads))
		s.record("serve.wait_ms", mean-1000*handler/handled, "ms", len(ref.reads))
		all := handled + b.count["delta"] - a.count["delta"]
		s.record("op.cpu_ms", ms(time.Duration(b.ticks-a.ticks)*clockTick)/all, "ms", int(all))
	}
}
