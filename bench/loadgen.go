package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The serve workload's open-loop load generator. Arrivals are planned up
// front from the seed and dispatched on schedule whether or not earlier
// requests have finished. Each is timed from its dispatch, which the
// dispatcher never delays for the server, so a server stall shows up in the
// latency of every request queued behind it. How late the dispatcher itself
// ran against the plan (timer granularity, CPU contention) is reported
// separately as lag rather than charged to the server: sleeps shorter than
// a millisecond overshoot by about a millisecond on common kernels, which
// would otherwise dominate sub-millisecond latencies.

// Request kinds. The reads follow the mix below; writes are POST /v1/delta.
const (
	kindSite = iota
	kindProviders
	kindSnapshot
	kindSites
	kindIncident
	kindDelta
	numKinds
)

var kindNames = [numKinds]string{"site", "providers", "snapshot", "sites", "incident", "delta"}

// readMix is the share of each read kind, in percent.
var readMix = [kindDelta]int{kindSite: 60, kindProviders: 25, kindSnapshot: 5, kindSites: 5, kindIncident: 5}

// request is one planned arrival.
type request struct {
	Due  time.Duration // since the start of the phase
	Kind int
	Step int // ladder step index; -1 in the warm-up
	// Arg selects the target: a site rank index for kindSite, a page for
	// kindSites, the ranking variant for kindProviders, and the write's
	// sequence number for kindDelta.
	Arg int
}

// siteSampler draws site rank indexes from a Zipf law over [0, n), so the
// head of the ranking gets most of the traffic, as on the real web.
func siteSampler(rng *rand.Rand, n int) func() int {
	if n < 2 {
		return func() int { return 0 }
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// ladder describes the serve phase: a warm-up at the first rate, then one
// step per rate, each offered for its duration, plus a write every
// WriteEvery during the steps.
type ladder struct {
	Rates            []float64
	Durs             []time.Duration
	Warm, WriteEvery time.Duration
}

// end is when step i ends, since the phase start; step -1 is the warm-up.
func (l ladder) end(i int) time.Duration {
	t := l.Warm
	for _, d := range l.Durs[:i+1] {
		t += d
	}
	return t
}

// plan generates the arrivals of the whole phase from seed: Poisson reads
// at each step's rate and evenly spaced writes, sorted by due time.
func plan(seed int64, nSites int, l ladder) []request {
	rng := rand.New(rand.NewSource(seed))
	pickSite := siteSampler(rng, nSites)
	var out []request
	read := func(due time.Duration, step int) {
		r := request{Due: due, Step: step}
		x := rng.Intn(100)
		for k, w := range readMix {
			if x < w {
				r.Kind = k
				break
			}
			x -= w
		}
		switch r.Kind {
		case kindSite:
			r.Arg = pickSite()
		case kindSites:
			r.Arg = rng.Intn(max(nSites/100, 1))
		case kindProviders:
			r.Arg = rng.Intn(2)
		}
		out = append(out, r)
	}
	var from time.Duration
	for i := -1; i < len(l.Rates); i++ {
		rate, to := l.Rates[max(i, 0)], l.end(i)
		for t := from; ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= to {
				break
			}
			read(t, i)
		}
		from = to
	}
	// Writes are spread over the steps, in order.
	seq, step := 0, 0
	for t := l.Warm + l.WriteEvery/2; t < l.end(len(l.Rates)-1); t += l.WriteEvery {
		for t >= l.end(step) {
			step++
		}
		out = append(out, request{Due: t, Kind: kindDelta, Step: step, Arg: seq})
		seq++
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// clock abstracts time for the dispatcher so tests can stall a server
// without sleeping.
type clock interface {
	Now() time.Duration
	// SleepUntil waits until t and returns the time it woke.
	SleepUntil(t time.Duration) time.Duration
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(t time.Duration) time.Duration {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
	return c.Now()
}

// outcome is what happened to one planned request, in times on the
// driving clock. A request never dispatched has OK false.
type outcome struct {
	// Dispatched is when the request was queued for a connection; Sent is
	// when a connection took it up.
	Dispatched, Sent, Done time.Duration
	OK                     bool
}

// Latency is the request's latency from its dispatch, queueing included.
func (o outcome) Latency() time.Duration { return o.Done - o.Dispatched }

// Lag is how late the dispatcher ran against the plan.
func (o outcome) Lag(r request) time.Duration { return o.Dispatched - r.Due }

// drive dispatches reqs (sorted by due time) on schedule to conns workers
// and waits for all of them. exec performs one request on a worker and
// returns its raw result; check then validates it off the timed path.
// Writes go to worker 0 alone, in plan order, so each sees the one before.
func drive(ctx context.Context, reqs []request, conns int, clk clock,
	exec func(ctx context.Context, r *request) (status int, body []byte, err error),
	check func(r *request, status int, body []byte, err error) bool) []outcome {
	out := make([]outcome, len(reqs))
	// Both queues can hold every request, so the dispatcher never blocks
	// on a slow server: the backlog lives here, visible to the latency.
	reads := make(chan int, len(reqs))
	writes := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rq, wq := reads, writes
			if w != 0 {
				wq = nil
			}
			for rq != nil || wq != nil {
				var i int
				var ok bool
				select {
				case i, ok = <-wq:
					if !ok {
						wq = nil
						continue
					}
				default:
					select {
					case i, ok = <-rq:
						if !ok {
							rq = nil
							continue
						}
					case i, ok = <-wq:
						if !ok {
							wq = nil
							continue
						}
					}
				}
				r := &reqs[i]
				out[i].Sent = clk.Now()
				status, body, err := exec(ctx, r)
				out[i].Done = clk.Now()
				out[i].OK = check(r, status, body, err)
			}
		}(w)
	}
	for i := range reqs {
		if ctx.Err() != nil {
			break
		}
		out[i].Dispatched = clk.SleepUntil(reqs[i].Due)
		if reqs[i].Kind == kindDelta {
			writes <- i
		} else {
			reads <- i
		}
	}
	close(reads)
	close(writes)
	wg.Wait()
	return out
}
