package main

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when told: SleepUntil jumps forward
// to its deadline, and advance models time spent inside a request.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Duration
	sleeps int
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = max(c.now, t)
	c.sleeps++
	return c.now
}

func (c *fakeClock) slept() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleeps
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func TestStalledServerInflatesQueuedLatency(t *testing.T) {
	const stall = 50 * time.Millisecond
	clk := &fakeClock{}
	var reqs []request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, request{Due: time.Duration(i) * time.Millisecond, Arg: i})
	}
	exec := func(_ context.Context, r *request) (int, []byte, error) {
		if r.Arg == 0 {
			// The server stalls on the first request, while the dispatcher
			// keeps queueing the rest on schedule.
			for clk.slept() < len(reqs) {
				runtime.Gosched()
			}
			clk.advance(stall)
		} else {
			clk.advance(100 * time.Microsecond)
		}
		return 200, nil, nil
	}
	ok := func(*request, int, []byte, error) bool { return true }
	outs := drive(context.Background(), reqs, 1, clk, exec, ok)
	last := reqs[len(reqs)-1].Due
	for i, o := range outs {
		r := reqs[i]
		if o.Dispatched != r.Due || !o.OK {
			t.Errorf("request %d: dispatched at %v, due %v", i, o.Dispatched, r.Due)
		}
		// Every request waits out the stall that began once the last one
		// was queued.
		if want := last + stall - r.Due; o.Latency() < want {
			t.Errorf("request %d: latency %v, want at least %v", i, o.Latency(), want)
		}
	}
	// Timing from when a connection took the request up would hide it.
	if o := outs[len(outs)-1]; o.Done-o.Sent >= time.Millisecond || o.Latency() < stall {
		t.Errorf("last request: service %v, latency %v; want the stall in latency, not in service",
			o.Done-o.Sent, o.Latency())
	}
}

func TestWritesRunInOrderOnOneWorker(t *testing.T) {
	var reqs []request
	for i := 0; i < 200; i++ {
		r := request{Due: time.Duration(i) * time.Microsecond}
		if i%3 == 0 {
			r.Kind, r.Arg = kindDelta, i/3
		}
		reqs = append(reqs, r)
	}
	var mu sync.Mutex
	var order []int
	exec := func(_ context.Context, r *request) (int, []byte, error) {
		if r.Kind == kindDelta {
			mu.Lock()
			order = append(order, r.Arg)
			mu.Unlock()
		}
		return 200, nil, nil
	}
	drive(context.Background(), reqs, 2, &fakeClock{}, exec, func(*request, int, []byte, error) bool { return true })
	for i, arg := range order {
		if arg != i {
			t.Fatalf("writes ran out of order: %v", order)
		}
	}
	if len(order) != 67 {
		t.Fatalf("%d writes ran, want 67", len(order))
	}
}

func TestSiteSamplerIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		next := siteSampler(rand.New(rand.NewSource(seed)), 10000)
		out := make([]int, 5000)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different sites")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same sites")
	}
	counts := make(map[int]int)
	for _, x := range a {
		if x < 0 || x >= 10000 {
			t.Fatalf("drew site %d outside [0, 10000)", x)
		}
		counts[x]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[100] {
		t.Errorf("not Zipf-like: rank 0 drawn %d times, rank 1 %d, rank 100 %d", counts[0], counts[1], counts[100])
	}
}

func TestPlanIsDeterministicAndFollowsTheLadder(t *testing.T) {
	l := ladder{Rates: []float64{1000, 4000}, Durs: []time.Duration{time.Second, time.Second},
		Warm: 500 * time.Millisecond, WriteEvery: 500 * time.Millisecond}
	a, b := plan(3, 5000, l), plan(3, 5000, l)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed planned different arrivals")
	}
	var perStep [2]int
	writes := 0
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatal("plan not sorted by due time")
		}
		if r.Kind == kindDelta {
			writes++
			continue
		}
		if r.Step >= 0 {
			perStep[r.Step]++
		}
	}
	if writes != 4 {
		t.Errorf("%d writes in 2s at one per 500ms, want 4", writes)
	}
	// Poisson counts: 1000 and 4000 expected, a few standard deviations.
	if perStep[0] < 900 || perStep[0] > 1100 || perStep[1] < 3800 || perStep[1] > 4200 {
		t.Errorf("step arrivals %v, want about [1000 4000]", perStep)
	}
}
