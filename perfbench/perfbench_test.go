package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const testN = 2264 // vertices of the dblp stand-in at the small scale

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		if !equalU64(publishSeeds(seed), publishSeeds(seed)) || !equalU64(estimateSeeds(seed), estimateSeeds(seed)) {
			t.Fatalf("seed %d: op seeds differ between calls", seed)
		}
		for c := 0; c < bodyStreams; c++ {
			for j := 0; j < 20; j++ {
				if !bytes.Equal(uniqueBody(seed, c, j, testN), uniqueBody(seed, c, j, testN)) {
					t.Fatalf("seed %d: body (%d, %d) differs between calls", seed, c, j)
				}
			}
		}
		a, b := hotPool(seed, testN), hotPool(seed, testN)
		for k, body := range a {
			if !bytes.Equal(body, b[k]) {
				t.Fatalf("seed %d: hot pool body %v differs between calls", seed, k)
			}
		}
		for c := 0; c < serveClients; c++ {
			if !equalKeys(hotSequence(seed, c), hotSequence(seed, c)) {
				t.Fatalf("seed %d: client %d's hot sequence differs between calls", seed, c)
			}
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if equalU64(publishSeeds(1), publishSeeds(2)) {
		t.Error("publish seeds do not depend on the workload seed")
	}
	if equalU64(estimateSeeds(1), estimateSeeds(2)) {
		t.Error("estimate seeds do not depend on the workload seed")
	}
	if bytes.Equal(uniqueBody(1, 0, 0, testN), uniqueBody(2, 0, 0, testN)) {
		t.Error("request bodies do not depend on the workload seed")
	}
	if bytes.Equal(hotPool(1, testN)[hotKey{0, 0}], hotPool(2, testN)[hotKey{0, 0}]) {
		t.Error("hot pool does not depend on the workload seed")
	}
	if equalKeys(hotSequence(1, 0), hotSequence(2, 0)) {
		t.Error("hot sequence does not depend on the workload seed")
	}
	if equalKeys(hotSequence(1, 0), hotSequence(1, 1)) {
		t.Error("the two clients draw the same hot sequence")
	}
}

func TestUniqueBodiesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for c := 0; c < bodyStreams; c++ {
		for j := 0; j < 3000; j++ {
			b := string(uniqueBody(7, c, j, testN))
			if seen[b] {
				t.Fatalf("body (%d, %d) repeats an earlier one", c, j)
			}
			seen[b] = true
		}
	}
}

func TestBodyShape(t *testing.T) {
	var req struct {
		Tolerance *float64 `json:"tolerance"`
		Queries   []struct {
			Op   string
			S, T int
		} `json:"queries"`
	}
	if err := json.Unmarshal(uniqueBody(3, 1, 5, testN), &req); err != nil {
		t.Fatal(err)
	}
	rel, dist := 0, 0
	for _, q := range req.Queries {
		if q.S == q.T || q.S < 0 || q.T < 0 || q.S >= testN || q.T >= testN {
			t.Errorf("bad endpoints %d, %d", q.S, q.T)
		}
		switch q.Op {
		case "reliability":
			rel++
		case "distance":
			dist++
		}
	}
	if rel != reliabilityQueries || dist != distanceQueries || req.Tolerance != nil {
		t.Errorf("got %d reliability and %d distance queries (tolerance %v), want %d and %d without tolerance",
			rel, dist, req.Tolerance, reliabilityQueries, distanceQueries)
	}
}

func TestHotPoolVariants(t *testing.T) {
	pool := hotPool(5, testN)
	if want := hotPoolSize + hotPoolSize/4; len(pool) != want {
		t.Fatalf("pool holds %d requests, want %d", len(pool), want)
	}
	for i := 0; i < hotPoolSize; i++ {
		if !hotQuartered(i) {
			if bytes.Contains(pool[hotKey{i, 0}], []byte("tolerance")) {
				t.Errorf("body %d carries a tolerance", i)
			}
			continue
		}
		if !bytes.Contains(pool[hotKey{i, 0}], []byte(`"tolerance":0,`)) ||
			!bytes.Contains(pool[hotKey{i, 1}], []byte(`"tolerance":0.05,`)) {
			t.Errorf("body %d lacks its explicit tolerance variants:\n%s\n%s", i, pool[hotKey{i, 0}], pool[hotKey{i, 1}])
		}
	}
}

func TestZipfDistinctKeysFixedBySeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a, b := distinctHotKeys(seed, serveClients), distinctHotKeys(seed, serveClients)
		if a != b {
			t.Fatalf("seed %d: %d then %d distinct keys", seed, a, b)
		}
		if max := hotPoolSize + hotPoolSize/4; a < 1 || a > max {
			t.Fatalf("seed %d: %d distinct keys, want 1..%d", seed, a, max)
		}
	}
	// Zipf: the most popular body is drawn far more often than the
	// least popular.
	counts := make(map[int]int)
	for _, k := range hotSequence(1, 0) {
		counts[k.body]++
	}
	if counts[0] < 10*counts[hotPoolSize-1] || counts[0] < hotSeqLen/10 {
		t.Errorf("rank-0 body drawn %d times, rank-63 %d times: not Zipf-skewed", counts[0], counts[hotPoolSize-1])
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("n=100: tail %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("n=100: %d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	v, pct, ok = tail(xs[:11]) // 100..90
	if !ok || v != 90 || pct != 100.0/11 {
		t.Errorf("n=11: tail %v at p%v (ok %v), want 90 at p%v", v, pct, ok, 100.0/11)
	}
	v, _, ok = tail(xs[:10])
	if ok || v != 100 {
		t.Errorf("n=10: tail %v (ok %v), want the maximum 100 flagged as too few samples", v, ok)
	}
	if xs[0] != 100 {
		t.Error("tail sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := tr.add(0, "parent", 0, 0, at(0), at(100))
	tr.add(0, "child", p, 0, at(10), at(30))
	tr.add(0, "child", p, 0, at(20), at(40))  // overlaps the first
	tr.add(0, "child", p, 0, at(90), at(120)) // sticks out of the parent
	for _, s := range tr.selfTimes() {
		if s.name == "parent" && s.self != 60 {
			t.Errorf("parent self time %v ms, want 60", s.self)
		}
	}
}

func TestProbeFiguresKeptApart(t *testing.T) {
	tr := newTracer()
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add(0, "uncertain.sample", 0, 0, at(0), at(2))
	tr.count("sampling.worlds", 16)
	if err := tr.probing(func() error {
		tr.add(0, "uncertain.sample", 0, 0, at(0), at(50))
		tr.add(0, "query.batch", 0, 0, at(0), at(7))
		tr.count("sampling.worlds", 4)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tr.add(0, "ugbin.write", 0, 0, at(0), at(1)) // recorded after the probe
	tr.add(0, probePrefix+"qserve.rtt_hit", 0, 0, at(0), at(3))
	got := make(map[string]namedMetric)
	for _, m := range perLayer(tr, 1) {
		got[m.name] = m
	}
	for _, c := range []struct {
		name    string
		value   float64
		offPath bool
	}{
		{"uncertain.sample_ms", 2, false}, // own figure wins over the probe's
		{"sampling.worlds", 16, false},
		{"query.batch_ms", 7, true}, // no own call: the probe's figure
		{"ugbin.write_ms", 1, false},
		{"qserve.rtt_hit_ms", 3, true}, // named as a probe's outside a probe
	} {
		m := got[c.name]
		if m.value != c.value || m.samples != 1 || strings.Contains(m.note, fromProbe) != c.offPath {
			t.Errorf("%s = %v (n=%d, note %q), want %v from the probe=%t", c.name, m.value, m.samples, m.note, c.value, c.offPath)
		}
	}
}

func TestRunWritesResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole publish op")
	}
	var out bytes.Buffer
	if err := runMain(&out, "publish", runPublish, 1, 1, false, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("last line has keys %v", res)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != 6 {
		t.Errorf("result %+v", r)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalKeys(a, b []hotKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
