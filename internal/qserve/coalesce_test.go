package qserve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// slowCachedServer hosts one n-vertex benchGraph on a cache-enabled
// server: big enough that batch runs take long enough for concurrent
// requests to overlap deliberately.
func slowCachedServer(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	srv := &Server{Worlds: 400, Workers: 1, Seed: 3, ResultCacheBudget: DefaultResultCacheBudget}
	if _, err := srv.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// asyncPost fires a batch request on its own goroutine; the returned
// function joins it (goroutine-safe: no t.Fatal off the test
// goroutine).
func asyncPost(url, body string) func() (int, []byte, error) {
	type result struct {
		status int
		body   []byte
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- result{resp.StatusCode, b, err}
	}()
	return func() (int, []byte, error) {
		r := <-ch
		return r.status, r.body, r.err
	}
}

// waitForStats polls GET /graphs until pred accepts the result-cache
// stats (the deadline failing the test).
func waitForStats(t *testing.T, baseURL string, pred func(ResultCacheStats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred(cacheStatsOf(t, baseURL)) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (stats %+v)", what, cacheStatsOf(t, baseURL))
}

// TestSingleFlightCoalesces is the race exercise of the single-flight
// layer (run it under -race): N concurrent identical requests plus N
// near-identical ones (same stream, different tolerance) produce
// exactly one computation per distinct key, every response within a
// group byte-identical, whatever the interleaving — late arrivals
// either join the flight or hit the cache it filled.
func TestSingleFlightCoalesces(t *testing.T) {
	_, ts := slowCachedServer(t, 300)
	const queries = `"queries":[{"op":"reliability","s":0,"t":150},{"op":"distance","s":1,"t":200}]`
	const ident = `{"worlds":600,` + queries + `}`
	const tolVariant = `{"worlds":600,"tolerance":0.5,` + queries + `}`
	url := ts.URL + "/graphs/big/batch"

	const n = 8
	joins := make([]func() (int, []byte, error), 0, 2*n)
	for i := 0; i < 2*n; i++ {
		body := ident
		if i%2 == 1 {
			body = tolVariant
		}
		joins = append(joins, asyncPost(url, body))
	}

	var identBodies, tolBodies [][]byte
	for i, join := range joins {
		status, body, err := join()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		if i%2 == 0 {
			identBodies = append(identBodies, body)
		} else {
			tolBodies = append(tolBodies, body)
		}
	}
	for name, group := range map[string][][]byte{"identical": identBodies, "tolerance": tolBodies} {
		for i, b := range group {
			if !bytes.Equal(b, group[0]) {
				t.Errorf("%s request %d diverges:\n%s\nvs\n%s", name, i, b, group[0])
			}
		}
	}

	st := cacheStatsOf(t, ts.URL)
	if st.Computations != 2 {
		t.Errorf("computations = %d over %d requests with 2 distinct keys, want 2", st.Computations, 2*n)
	}
	if st.Hits+st.Coalesced != 2*n-2 {
		t.Errorf("hits %d + coalesced %d != %d non-leader requests", st.Hits, st.Coalesced, 2*n-2)
	}

	// And the coalesced answer is the recomputation's answer: a fresh
	// cache-disabled server agrees byte-for-byte.
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, 300), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	_, want := postBody(t, tsRef.URL+"/graphs/big/batch", ident)
	if !bytes.Equal(identBodies[0], want) {
		t.Errorf("coalesced answer diverges from fresh recomputation:\n%s\nvs\n%s", identBodies[0], want)
	}
}

// TestSharedWorldStreamCohort forces the cohort path: a long
// fixed-worlds run holds the stream while three tolerance-variant
// requests (distinct cache keys, same stream key) queue behind it;
// they must be drafted into one shared run and still answer
// byte-identically to solo recomputation on a cache-disabled server.
func TestSharedWorldStreamCohort(t *testing.T) {
	const n = 1000
	_, ts := slowCachedServer(t, n)
	url := ts.URL + "/graphs/big/batch"
	const queries = `"queries":[{"op":"reliability","s":0,"t":500}]`
	slow := `{"worlds":3000,"tolerance":0,` + queries + `}`
	variants := []string{
		`{"worlds":3000,"tolerance":0.2,` + queries + `}`,
		`{"worlds":3000,"tolerance":0.3,` + queries + `}`,
		`{"worlds":3000,"tolerance":0.4,` + queries + `}`,
	}

	joinSlow := asyncPost(url, slow)
	// Wait until the slow flight's computation has actually started, so
	// the variants are guaranteed to arrive mid-run and queue.
	waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Computations >= 1 }, "the slow flight to start")
	joins := make([]func() (int, []byte, error), len(variants))
	for i, body := range variants {
		joins[i] = asyncPost(url, body)
	}

	bodies := make([][]byte, len(variants))
	for i, join := range joins {
		status, body, err := join()
		if err != nil || status != http.StatusOK {
			t.Fatalf("variant %d: status %d err %v: %s", i, status, err, body)
		}
		bodies[i] = body
	}
	if status, body, err := joinSlow(); err != nil || status != http.StatusOK {
		t.Fatalf("slow request: status %d err %v: %s", status, err, body)
	}

	st := cacheStatsOf(t, ts.URL)
	if st.SharedRuns < 1 || st.SharedBatches < 2 {
		t.Errorf("shared runs %d / batches %d: the cohort never shared a stream", st.SharedRuns, st.SharedBatches)
	}

	// Shared execution must be invisible in the answers.
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	for i, body := range variants {
		_, want := postBody(t, tsRef.URL+"/graphs/big/batch", body)
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("shared-run variant %d diverges from solo recomputation:\n%s\nvs\n%s", i, bodies[i], want)
		}
	}
}

// TestAbandonedFlightStopsAndGoroutinesSettle pins mid-flight
// cancellation: when the only attached request drops, the flight's
// computation is cancelled, nothing is cached, the goroutine count
// returns to its pre-request baseline, and the same request afterwards
// recomputes a correct answer.
func TestAbandonedFlightStopsAndGoroutinesSettle(t *testing.T) {
	const n = 1000
	_, ts := slowCachedServer(t, n)
	url := ts.URL + "/graphs/big/batch"
	const body = `{"worlds":6000,"tolerance":0,"queries":[{"op":"reliability","s":0,"t":500}]}`

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Computations >= 1 }, "the flight to start")
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled request completed with a response")
	}

	// The abandoned flight and its run wind down; no goroutine leaks.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+3 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+3 {
		t.Errorf("goroutines %d after cancellation, baseline was %d", got, baseline)
	}
	if st := cacheStatsOf(t, ts.URL); st.Entries != 0 {
		t.Errorf("cancelled flight stored %d cache entries", st.Entries)
	}

	// The identical request recomputes from scratch and matches the
	// cache-disabled reference: errors and aborts never stick.
	status, got := postBody(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", status, got)
	}
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	if _, want := postBody(t, tsRef.URL+"/graphs/big/batch", body); !bytes.Equal(got, want) {
		t.Errorf("post-cancel answer diverges from fresh recomputation:\n%s\nvs\n%s", got, want)
	}
}

// TestDetachUnregistersAbandonedFlight pins the flight table at the
// detach/abort seam without any timing: the last detach unregisters
// the flight at once, so an identical lookup leads a fresh one; the
// stale flight's abort (or late settle) cannot drop that newer flight;
// and abort closes ready with a retryable 503.
func TestDetachUnregistersAbandonedFlight(t *testing.T) {
	for _, late := range []string{"abort", "settle"} {
		c := newResultCache(1 << 20)
		_, f1, leader := c.lookup("k")
		if !leader {
			t.Fatal("first lookup did not lead")
		}
		c.detach(f1)
		if f1.ctx.Err() == nil {
			t.Fatal("last detach did not cancel the flight")
		}
		_, f2, leader := c.lookup("k")
		if !leader || f2 == f1 {
			t.Fatalf("%s: lookup after the last detach joined the abandoned flight", late)
		}
		if late == "abort" {
			c.abort(f1)
			select {
			case <-f1.ready:
			default:
				t.Fatal("abort left ready open")
			}
			if f1.status != http.StatusServiceUnavailable {
				t.Errorf("aborted flight status %d, want 503", f1.status)
			}
		} else {
			c.settle("g", f1, http.StatusOK, []byte(`{}`), true)
		}
		if c.flights["k"] != f2 {
			t.Fatalf("%s of the stale flight dropped the newer flight", late)
		}
		c.settle("g", f2, http.StatusOK, []byte(`{}`), true)
		if len(c.flights) != 0 {
			t.Fatalf("%s: settled flights stay registered", late)
		}
	}
}

// TestIdenticalRequestDuringAbortNeverJoinsDeadFlight is the
// deterministic regression test for the abandoned-flight hang: the
// abort of a cancelled flight is held open by the onAbort hook while
// an identical request arrives. That request must compute its own
// answer — before the fix it joined the dead flight and blocked until
// its client gave up.
func TestIdenticalRequestDuringAbortNeverJoinsDeadFlight(t *testing.T) {
	const n = 1000
	srv := &Server{Worlds: 400, Workers: 1, Seed: 3, ResultCacheBudget: DefaultResultCacheBudget}
	if _, err := srv.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	aborting, release := make(chan struct{}), make(chan struct{})
	srv.cache.onAbort = func() {
		close(aborting)
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/graphs/big/batch"
	const body = `{"worlds":6000,"tolerance":0,"queries":[{"op":"reliability","s":0,"t":500}]}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Computations >= 1 }, "the flight to start")
	cancel()
	<-done
	select {
	case <-aborting:
	case <-time.After(30 * time.Second):
		t.Fatal("the cancelled flight never reached abort")
	}

	// The dead flight is parked inside abort. A bounded client turns the
	// old hang into a failure instead of a stuck test.
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		close(release)
		t.Fatalf("identical request during abort: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	close(release)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical request during abort: status %d: %s", resp.StatusCode, got)
	}
	if st := cacheStatsOf(t, ts.URL); st.Computations != 2 || st.Coalesced != 0 {
		t.Errorf("stats %+v: want a second, uncoalesced computation", st)
	}
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	if _, want := postBody(t, tsRef.URL+"/graphs/big/batch", body); !bytes.Equal(got, want) {
		t.Errorf("answer diverges from fresh recomputation:\n%s\nvs\n%s", got, want)
	}
}
