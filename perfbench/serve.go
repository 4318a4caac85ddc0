package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/query"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

const (
	// serveClients and serveWorkers keep the serving load within a
	// 2-core host: two closed-loop clients with one connection each,
	// and two world workers per request.
	serveClients = 2
	serveWorkers = 2
	// graphName is the registry name the stand-in is served under.
	graphName = "dblp"
	// requestDeadline is every request's client-side deadline: a
	// request the server never answers counts as a failed op instead
	// of hanging the run.
	requestDeadline = 15 * time.Second
	// probeRequests is how many fresh requests the serving probe of a
	// traced run sends one at a time.
	probeRequests = 8
	// hotMinSteady is the shortest steady phase of serve-hot.
	hotMinSteady = 5 * time.Second
)

// newServer returns a query server with cmd/queryd's defaults (Hoeffding
// worlds, base seed 1, 256 MiB result cache) and an explicit worker
// count.
func newServer() *qserve.Server {
	return &qserve.Server{Workers: serveWorkers, Seed: 1, ResultCacheBudget: qserve.DefaultResultCacheBudget}
}

// serverHandle is a query server listening on a loopback port.
type serverHandle struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer serves srv on a fresh loopback port and waits until it
// answers /healthz.
func startServer(ctx context.Context, srv *qserve.Server) (*serverHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &serverHandle{hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	if _, err := newClient(h.url).cacheStats(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the server and waits for its accept loop to return.
func (h *serverHandle) close() {
	h.hs.Close()
	<-h.done
}

// client is one closed-loop caller with a single connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestDeadline}, url: url}
}

// post sends one batch request and returns the status and body.
func (c *client) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/graphs/"+graphName+"/batch", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// cacheStats reads the result-cache counters from /healthz.
func (c *client) cacheStats(ctx context.Context) (qserve.ResultCacheStats, error) {
	var h struct {
		ResultCache qserve.ResultCacheStats `json:"result_cache"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/healthz", nil)
	if err != nil {
		return h.ResultCache, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h.ResultCache, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h.ResultCache, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h.ResultCache, err
}

// recordCacheDeltas records the result-cache counters' change between
// two /healthz reads, and the occupancy at the second.
func recordCacheDeltas(tr *tracer, a, b qserve.ResultCacheStats) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	tr.count("qserve.cache.hits", d(a.Hits, b.Hits))
	tr.count("qserve.cache.misses", d(a.Misses, b.Misses))
	tr.count("qserve.cache.computations", d(a.Computations, b.Computations))
	tr.count("qserve.cache.coalesced", d(a.Coalesced, b.Coalesced))
	tr.count("qserve.cache.shared_runs", d(a.SharedRuns, b.SharedRuns))
	tr.count("qserve.cache.shared_batches", d(a.SharedBatches, b.SharedBatches))
	tr.count("qserve.cache.bytes", float64(b.Bytes))
}

// bodyChecker holds the first 200 body returned for every request;
// every later answer to the same request must be byte-identical.
type bodyChecker struct {
	mu    sync.Mutex
	first map[string][]byte
	done  map[string]time.Time // when the first answer completed
}

func newBodyChecker() *bodyChecker {
	return &bodyChecker{first: make(map[string][]byte), done: make(map[string]time.Time)}
}

// check validates one answer and reports whether an answer to the same
// request had completed before `sent`, i.e. whether the op could be
// served from the cache.
func (bc *bodyChecker) check(req, resp []byte, sent, end time.Time) (ok, seen bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	key := string(req)
	first, ok := bc.first[key]
	if ok {
		return bytes.Equal(first, resp), bc.done[key].Before(sent)
	}
	if !validResponse(req, resp) {
		return false, false
	}
	bc.first[key] = append([]byte(nil), resp...)
	bc.done[key] = end
	return true, false
}

func (bc *bodyChecker) answer(req []byte) []byte {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.first[string(req)]
}

// validResponse checks an answer's shape: it names the graph, answers
// every query in order, and every probability is in [0, 1].
func validResponse(reqBody, respBody []byte) bool {
	var req qserve.BatchRequest
	var resp qserve.BatchResponse
	if json.Unmarshal(reqBody, &req) != nil || json.Unmarshal(respBody, &resp) != nil {
		return false
	}
	if resp.Graph != graphName || resp.Worlds < 1 || resp.Worlds > query.DefaultWorlds() || len(resp.Results) != len(req.Queries) {
		return false
	}
	for i, r := range resp.Results {
		q := req.Queries[i]
		if r.Op != q.Op || r.S != q.S || r.T == nil || *r.T != q.T {
			return false
		}
		switch q.Op {
		case "reliability":
			if r.Reliability == nil || !(*r.Reliability >= 0 && *r.Reliability <= 1) {
				return false
			}
		case "distance":
			if r.Disconnected == nil || r.Median == nil {
				return false
			}
			total := *r.Disconnected
			for _, p := range r.Distances {
				total += p
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// replayBatch recomputes one served request in-process with
// query.Batch, using the worlds and seed the response echoes, and
// reports how long the batch ran and whether its answers equal the
// served ones exactly.
func replayBatch(ctx context.Context, tr *tracer, b *query.Batch, reqBody, respBody []byte, parent int64) (time.Duration, bool, error) {
	var req qserve.BatchRequest
	var resp qserve.BatchResponse
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return 0, false, err
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return 0, false, err
	}
	b.Reset()
	ids := make([]int, len(req.Queries))
	for i, q := range req.Queries {
		if q.Op == "distance" {
			ids[i] = b.AddDistance(q.S, q.T)
		} else {
			ids[i] = b.AddReliability(q.S, q.T)
		}
	}
	b.Worlds, b.Seed, b.Workers, b.Tolerance = resp.Worlds, resp.Seed, serveWorkers, 0
	var err error
	d := tr.time("query.batch", parent, 0, func() { err = b.Run(ctx) })
	if err != nil {
		return 0, false, err
	}
	tr.count("query.worlds", float64(b.WorldsRun()))
	ok := len(resp.Results) == len(req.Queries)
	for i, q := range req.Queries {
		if !ok {
			break
		}
		r := resp.Results[i]
		switch q.Op {
		case "reliability":
			ok = r.Reliability != nil && *r.Reliability == b.Reliability(ids[i])
		case "distance":
			dist, disc := b.DistanceDistribution(ids[i])
			ok = r.Disconnected != nil && *r.Disconnected == disc &&
				r.Median != nil && *r.Median == b.MedianDistance(ids[i]) && len(dist) == len(r.Distances)
			for k, p := range dist {
				ok = ok && r.Distances[k] == p
			}
		}
	}
	return d, ok, nil
}

// sampleAlone samples the worlds a batch of the given worlds and seed
// samples, on the same number of workers, without traversing them; it
// returns the wall time. With perWorld it also records each world's
// Sample call as an uncertain.sample span.
func sampleAlone(tr *tracer, ug *uncertain.Graph, worlds int, seed int64, parent int64, perWorld bool) time.Duration {
	seeds := make([]int64, worlds)
	randx.FillWorldSeeds(seeds, randx.New(seed))
	proto := ug.NewSampler()
	samplers := []*uncertain.Sampler{proto, proto.Clone()}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randx.New(0)
			for i := w; i < worlds; i += serveWorkers {
				rng.Seed(seeds[i])
				t0 := time.Now()
				samplers[w].Sample(rng)
				if perWorld {
					tr.add(0, "uncertain.sample", parent, 0, t0, time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	end := time.Now()
	tr.add(0, "query.sample_alone", parent, 0, start, end)
	return end.Sub(start)
}

// servingProbe sends probeRequests fresh requests one at a time and
// then each again: the first sending is a cache miss, the second a hit.
// Each miss is replayed with query.Batch and its worlds sampled alone,
// so the server's own overhead (miss round trip minus the batch) and
// the sampling share of a batch are measured without competing load.
// Its round trips are always recorded as a probe's: on a serving
// workload the loop's own client spans give the round-trip figures.
// On a serving workload, where world sampling is on the path, the
// sampled worlds also give uncertain.sample; elsewhere that figure
// comes from the workload's own sampling or the sampling probe.
func servingProbe(e *env, o *outcome, h *serverHandle, ug *uncertain.Graph, serving bool) error {
	cl := newClient(h.url)
	n := ug.NumVertices()
	b := query.NewBatch(ug, query.Config{Workers: serveWorkers})
	// Warm the server's pooled batch and the replay batch alike.
	warm := uniqueBody(e.seed, probeStream, probeRequests, n)
	status, resp, err := cl.post(e.ctx, warm)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("serving probe warm-up: status %d: %v", status, err)
	}
	if _, _, err := replayBatch(e.ctx, nil, b, warm, resp, 0); err != nil {
		return err
	}
	parent := e.tr.id()
	pStart := time.Now()
	for k := 0; k < probeRequests; k++ {
		body := uniqueBody(e.seed, probeStream, k, n)
		t0 := time.Now()
		status, resp, err := cl.post(e.ctx, body)
		t1 := time.Now()
		if err != nil || status != http.StatusOK || !validResponse(body, resp) {
			o.check(false)
			continue
		}
		e.tr.add(0, probePrefix+"qserve.rtt_miss", parent, 0, t0, t1)
		batch, same, err := replayBatch(e.ctx, e.tr, b, body, resp, parent)
		if err != nil {
			return err
		}
		o.check(same)
		var echo qserve.BatchResponse
		if err := json.Unmarshal(resp, &echo); err != nil {
			return err
		}
		sampleAlone(e.tr, ug, echo.Worlds, echo.Seed, parent, serving)
		e.tr.count("qserve.overhead_ms", ms(t1.Sub(t0)-batch))

		t0 = time.Now()
		status, again, err := cl.post(e.ctx, body)
		t1 = time.Now()
		o.check(err == nil && status == http.StatusOK && bytes.Equal(resp, again))
		e.tr.add(0, probePrefix+"qserve.rtt_hit", parent, 0, t0, t1)
	}
	e.tr.add(parent, "probe.serving", 0, 0, pStart, time.Now())
	return nil
}

// serveSetup is one set-up repetition of the serving workloads: the
// set-up obfuscation, its .ugb file written and loaded back, the file
// published on a fresh server, and the server listening.
func serveSetup(e *env, rep int) (*serverHandle, *uncertain.Graph, time.Duration, error) {
	ug, d, err := setupObfuscation(e)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	path := filepath.Join(e.workdir, fmt.Sprintf("dblp-%d.ugb", rep))
	if err := writeLoad(e.tr, ug, path); err != nil {
		return nil, nil, 0, err
	}
	srv := newServer()
	if _, err := srv.PublishFile(graphName, path, qserve.GraphConfig{}); err != nil {
		return nil, nil, 0, err
	}
	h, err := startServer(e.ctx, srv)
	if err != nil {
		return nil, nil, 0, err
	}
	return h, ug, d + time.Since(t0), nil
}

// runServe is the serve-cold (hot=false) or serve-hot workload: two
// closed-loop clients POSTing batch requests to an in-process server
// over loopback.
func runServe(e *env, hot bool) (*outcome, error) {
	var h *serverHandle
	var ug *uncertain.Graph
	setups, err := repeatSetup(3, 10, 0, func(rep int) (time.Duration, error) {
		if h != nil {
			h.close()
		}
		var d time.Duration
		var err error
		h, ug, d, err = serveSetup(e, rep)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()

	n := ug.NumVertices()
	var pool map[hotKey][]byte
	var seqs [][]hotKey
	if hot {
		pool = hotPool(e.seed, n)
		for c := 0; c < serveClients; c++ {
			seqs = append(seqs, hotSequence(e.seed, c))
		}
	}
	body := func(c, i int) []byte {
		if hot {
			return pool[seqs[c][i%hotSeqLen]]
		}
		return uniqueBody(e.seed, c, i, n)
	}

	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = newClient(h.url)
	}
	before, err := clients[0].cacheStats(e.ctx)
	if err != nil {
		return nil, err
	}
	bc := newBodyChecker()
	op := func(r *opRecord) {
		req := body(r.client, r.index)
		var status int
		var resp []byte
		var err error
		r.measure(func() { status, resp, err = clients[r.client].post(e.ctx, req) })
		if err != nil || status != http.StatusOK {
			return
		}
		ok, seen := bc.check(req, resp, r.start, r.end)
		r.ok = ok
		if r.traced {
			name := "qserve.rtt_miss"
			if seen {
				name = "qserve.rtt_hit"
			}
			e.tr.add(0, name, r.id, r.id, r.start, r.end)
		}
	}
	o := &outcome{setups: setups}
	if hot {
		// Every client first sends its whole sequence once, which holds
		// every miss; the steady phase after it, all hits, runs until
		// the window is over and for at least hotMinSteady.
		start := time.Now()
		pass := closedLoop(e, serveClients, 0, hotSeqLen, 1, 0, op)
		steady := e.window - time.Since(start)
		if steady < hotMinSteady {
			steady = hotMinSteady
		}
		o.rate = closedLoop(e, serveClients, hotSeqLen, 0, 1, steady, op)
		o.ops = pass
		o.ops.merge(o.rate)
		o.notes = append(o.notes, fmt.Sprintf("first pass %.3f s (%d ops), steady phase %.3f s (%d ops)",
			pass.busy.Seconds(), pass.attempted, o.rate.busy.Seconds(), o.rate.attempted))
	} else {
		o.ops = closedLoop(e, serveClients, 0, 0, 1, e.window, op)
		o.rate = o.ops
	}
	after, err := clients[0].cacheStats(e.ctx)
	if err != nil {
		return nil, err
	}
	// The cache holds every answer and coalesces concurrent identical
	// requests, so it computes each distinct request exactly once.
	distinct := o.ops.attempted
	if hot {
		distinct = distinctHotKeys(e.seed, serveClients)
	}
	computed := after.Computations - before.Computations
	o.check(computed == uint64(distinct))
	o.notes = append(o.notes, fmt.Sprintf("distinct requests %d, computations %d", distinct, computed))

	// The first two requests of client 0, recomputed in-process, must
	// give the served answers exactly. A request that got no answer
	// already counts as a failed op.
	b := query.NewBatch(ug, query.Config{Workers: serveWorkers})
	for i := 0; i < 2; i++ {
		req := body(0, i)
		resp := bc.answer(req)
		if resp == nil {
			continue
		}
		_, same, err := replayBatch(e.ctx, nil, b, req, resp, 0)
		o.check(err == nil && same)
	}

	if e.tr != nil {
		recordCacheDeltas(e.tr, before, after)
		if err := servingProbe(e, o, h, ug, true); err != nil {
			return nil, err
		}
		if err := probeOffPath(e, o, ug, probeSampling); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Off-path probes a traced run makes after its ops, so that every
// traced run reports every layer: on a workload that does not use a
// layer, the layer is timed on the workload's own graph. The probes'
// spans and counts are recorded under probePrefix, apart from the
// workload's own.
const (
	probeSampling = 1 << iota
	probeUgbin
	probeServing
)

func probeOffPath(e *env, o *outcome, ug *uncertain.Graph, which int) error {
	return e.tr.probing(func() error { return runProbes(e, o, ug, which) })
}

func runProbes(e *env, o *outcome, ug *uncertain.Graph, which int) error {
	if which&probeSampling != 0 {
		ok, err := samplingProbe(e, ug)
		if err != nil {
			return err
		}
		o.check(ok)
	}
	if which&probeUgbin != 0 {
		if err := ugbinProbe(e, ug); err != nil {
			return err
		}
	}
	if which&probeServing != 0 {
		srv := newServer()
		if _, err := srv.PublishGraph(graphName, ug, qserve.GraphConfig{}); err != nil {
			return err
		}
		h, err := startServer(e.ctx, srv)
		if err != nil {
			return err
		}
		defer h.close()
		cl := newClient(h.url)
		before, err := cl.cacheStats(e.ctx)
		if err != nil {
			return err
		}
		if err := servingProbe(e, o, h, ug, false); err != nil {
			return err
		}
		after, err := cl.cacheStats(e.ctx)
		if err != nil {
			return err
		}
		recordCacheDeltas(e.tr, before, after)
	}
	return nil
}
