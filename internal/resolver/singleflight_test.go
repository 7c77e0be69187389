package resolver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depscope/internal/dnsmsg"
)

// countingTransport wraps a Transport, counting exchanges and optionally
// blocking them until release is closed.
type countingTransport struct {
	inner   Transport
	calls   atomic.Int64
	release chan struct{} // nil means never block
}

func (t *countingTransport) Exchange(ctx context.Context, q *dnsmsg.Message) (*dnsmsg.Message, error) {
	t.calls.Add(1)
	if t.release != nil {
		select {
		case <-t.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.inner.Exchange(ctx, q)
}

// TestNegativeCacheExpiry pins the regression the negative cache is prone
// to: an NXDOMAIN entry older than negativeTTL must be re-queried, not served
// stale forever.
func TestNegativeCacheExpiry(t *testing.T) {
	clock := time.Unix(1_600_000_000, 0)
	tr := &countingTransport{inner: ZoneDirect{testStore()}}
	r := New(tr, WithClock(func() time.Time { return clock }))
	ctx := context.Background()

	lookup := func() {
		t.Helper()
		res, err := r.Lookup(ctx, "gone.twitter.test", dnsmsg.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.RCode != dnsmsg.RCodeNameError {
			t.Fatal("expected NXDOMAIN")
		}
	}

	lookup()
	clock = clock.Add(negativeTTL - time.Second)
	lookup() // still inside negativeTTL: served from cache
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("transport calls inside negativeTTL = %d, want 1", got)
	}
	clock = clock.Add(2 * time.Second) // 61s after the original answer
	lookup()
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("expired negative entry was not re-queried: %d transport calls, want 2", got)
	}
	if s := r.Stats(); s.Queries != 3 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want Queries 3 / Hits 1", s)
	}
}

// TestSingleflightOneKey64Goroutines hammers one (name, type) from 64
// goroutines while the transport is held open, proving the singleflight
// layer collapses them onto a single exchange: Queries - Hits == 1.
// Run under -race in make verify.
func TestSingleflightOneKey64Goroutines(t *testing.T) {
	const goroutines = 64
	tr := &countingTransport{
		inner:   ZoneDirect{testStore()},
		release: make(chan struct{}),
	}
	r := New(tr)
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Lookup(ctx, "twitter.test.", dnsmsg.TypeNS)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			if len(res.Answers) != 2 {
				t.Errorf("got %d answers, want 2", len(res.Answers))
			}
		}()
	}

	// The transport is gated, so the leader's flight stays registered until
	// every other goroutine has joined it; wait for all 63 waiters before
	// letting the exchange finish.
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Deduped < goroutines-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d lookups joined the flight", r.Stats().Deduped)
		}
		time.Sleep(time.Millisecond)
	}
	close(tr.release)
	wg.Wait()

	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("transport exchanges = %d, want 1", got)
	}
	s := r.Stats()
	if s.Queries != goroutines {
		t.Fatalf("Queries = %d, want %d", s.Queries, goroutines)
	}
	if s.Queries-s.Hits != 1 {
		t.Fatalf("Queries - Hits = %d, want 1 (stats %+v)", s.Queries-s.Hits, s)
	}
	if s.Deduped != goroutines-1 {
		t.Fatalf("Deduped = %d, want %d", s.Deduped, goroutines-1)
	}
}

// TestSingleflightErrorNotCached proves a failed exchange is handed to its
// waiters but not cached: the next lookup tries the transport again.
func TestSingleflightErrorNotCached(t *testing.T) {
	tr := &countingTransport{inner: ZoneDirect{testStore()}}
	r := New(tr)
	ctx := context.Background()
	// outside.example is outside the store's authority -> SERVFAIL error.
	if _, err := r.Lookup(ctx, "outside.example.", dnsmsg.TypeA); err == nil {
		t.Fatal("expected SERVFAIL error")
	}
	if _, err := r.Lookup(ctx, "outside.example.", dnsmsg.TypeA); err == nil {
		t.Fatal("expected SERVFAIL error on retry")
	}
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("transport calls = %d, want 2 (errors must not be cached)", got)
	}
}

// TestCacheHitAllocs guards the cached resolver's hot path: a cache hit for
// an already-canonical name must not allocate.
func TestCacheHitAllocs(t *testing.T) {
	r := cachedStore()
	ctx := context.Background()
	if _, err := r.Lookup(ctx, "twitter.test.", dnsmsg.TypeNS); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Lookup(ctx, "twitter.test.", dnsmsg.TypeNS); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocates %.1f per lookup, want 0", allocs)
	}
}

// TestSingleflightWaiterCancel: a lookup that joined an in-flight exchange
// and whose context ends returns context.Canceled at once, while the
// exchange runs on for the leader and the other waiters; the answer is
// cached as usual.
func TestSingleflightWaiterCancel(t *testing.T) {
	tr := &countingTransport{
		inner:   ZoneDirect{testStore()},
		release: make(chan struct{}),
	}
	r := New(tr)
	bg := context.Background()
	lookup := func(ctx context.Context, out chan<- error) {
		res, err := r.Lookup(ctx, "twitter.test.", dnsmsg.TypeNS)
		if err == nil && len(res.Answers) != 2 {
			err = fmt.Errorf("got %d answers, want 2", len(res.Answers))
		}
		out <- err
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, r.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	leader := make(chan error, 1)
	go lookup(bg, leader)
	waitFor("the leader's exchange", func() bool { return tr.calls.Load() == 1 })

	ctx, cancel := context.WithCancel(bg)
	cancelled := make(chan error, 1)
	go lookup(ctx, cancelled)
	waitFor("the first waiter", func() bool { return r.Stats().Deduped == 1 })
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}

	waiter := make(chan error, 1)
	go lookup(bg, waiter)
	waitFor("the second waiter", func() bool { return r.Stats().Deduped == 2 })
	close(tr.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("second waiter: %v", err)
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("transport exchanges = %d, want 1", got)
	}

	if _, err := r.Lookup(bg, "twitter.test.", dnsmsg.TypeNS); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("lookup after the flight went to the transport: %d exchanges", got)
	}
	if s := r.Stats(); s.Queries != 4 || s.Hits != 2 || s.Deduped != 2 {
		t.Fatalf("stats = %+v, want Queries 4 / Hits 2 / Deduped 2", s)
	}
}
