package main

import (
	"encoding/json"
	"math/rand"

	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/randx"
)

// Every input of a run is derived from the workload seed through one
// of these stream tags, so the streams are independent of each other
// and the same seed always gives the same inputs.
const (
	tagPublish uint64 = iota + 1
	tagEstimate
	tagQueryBody
	tagHotPool
	tagHotSequence
	tagSamplingProbe
)

const (
	// publishSeedCount is how many obfuscation seeds the publish
	// workload cycles through; the first op with each seed is the
	// reference the later ones must repeat.
	publishSeedCount = 4
	// estimateSeedCount is how many estimation seeds the estimate
	// workload cycles through, each with its own set-up reference.
	estimateSeedCount = 2

	// Request shape: 6 reliability and 2 distance queries. This and the
	// serve-hot traffic below are assumptions, not measured from a
	// query log; replace them once one is available.
	reliabilityQueries = 6
	distanceQueries    = 2

	// bodyStreams partitions the unique-body index space between the
	// two serving clients and the probe, so no two of them can ever
	// send the same body.
	bodyStreams = 3
	probeStream = 2

	// Serve-hot: a pool of 64 bodies, a fixed quarter of which is sent
	// in two tolerance variants, drawn Zipf(s=1.1) by every client.
	hotPoolSize  = 64
	hotZipfS     = 1.1
	hotSeqLen    = 1024
	hotTolerance = 0.05
)

func derive(seed int64, tags ...uint64) int64 { return randx.Derive(seed, tags...) }

// publishSeeds returns the obfuscation seeds publish op i cycles
// through (op i uses seed i mod publishSeedCount).
func publishSeeds(seed int64) []uint64 {
	out := make([]uint64, publishSeedCount)
	for i := range out {
		out[i] = uint64(derive(seed, tagPublish, uint64(i)))
	}
	return out
}

// estimateSeeds returns the estimation seeds estimate op i cycles
// through.
func estimateSeeds(seed int64) []uint64 {
	out := make([]uint64, estimateSeedCount)
	for i := range out {
		out[i] = uint64(derive(seed, tagEstimate, uint64(i)))
	}
	return out
}

// setupSeed is the seed of the set-up obfuscation that estimate and
// the serving workloads run on. Like the dataset it is fixed, so every
// workload seed estimates on and serves the same published graph and
// runs differ only in the ops the seed draws.
const setupSeed = 1

// uniqueBody returns body j of stream c (a serving client, or the
// probe): 6 reliability and 2 distance queries over an n-vertex graph.
// The first query's endpoints are a bijection of (j, c), so no two
// (stream, index) pairs give the same body while j·bodyStreams+c stays
// below n(n−1); the other endpoints are drawn from the seed.
func uniqueBody(seed int64, c, j, n int) []byte {
	idx := j*bodyStreams + c
	off := int(uint64(derive(seed, tagQueryBody)) % uint64(n))
	s0 := (off + idx) % n
	t0 := (s0 + 1 + (idx/n)%(n-1)) % n
	rng := randx.New(derive(seed, tagQueryBody, uint64(c), uint64(j)))
	return encodeBody(drawQueries(rng, n, s0, t0), nil)
}

// drawQueries returns the request's queries: the first reliability
// query is (s0, t0); every other endpoint pair is drawn from rng.
func drawQueries(rng *rand.Rand, n, s0, t0 int) []qserve.QueryRequest {
	qs := make([]qserve.QueryRequest, 0, reliabilityQueries+distanceQueries)
	qs = append(qs, qserve.QueryRequest{Op: "reliability", S: s0, T: t0})
	for len(qs) < reliabilityQueries+distanceQueries {
		s, t := rng.Intn(n), rng.Intn(n)
		if s == t {
			continue
		}
		op := "reliability"
		if len(qs) >= reliabilityQueries {
			op = "distance"
		}
		qs = append(qs, qserve.QueryRequest{Op: op, S: s, T: t})
	}
	return qs
}

func encodeBody(qs []qserve.QueryRequest, tol *float64) []byte {
	b, err := json.Marshal(qserve.BatchRequest{Queries: qs, Tolerance: tol})
	if err != nil {
		panic(err) // a BatchRequest of plain values always encodes
	}
	return b
}

// hotKey names one serve-hot request: a pool body, and for the
// quartered bodies the tolerance variant (0: explicit 0, 1: 0.05).
type hotKey struct {
	body, variant int
}

// hotQuartered reports whether pool body i is sent in two tolerance
// variants: a fixed quarter of the pool spread over the Zipf ranks.
func hotQuartered(i int) bool { return i%4 == 3 }

// hotPool returns the serve-hot request bodies, indexed by hotKey: the
// three quarters of the pool that carry no tolerance field map to
// variant 0 only.
func hotPool(seed int64, n int) map[hotKey][]byte {
	pool := make(map[hotKey][]byte)
	for i := 0; i < hotPoolSize; i++ {
		rng := randx.New(derive(seed, tagHotPool, uint64(i)))
		s0 := rng.Intn(n)
		t0 := (s0 + 1 + rng.Intn(n-1)) % n
		qs := drawQueries(rng, n, s0, t0)
		if !hotQuartered(i) {
			pool[hotKey{i, 0}] = encodeBody(qs, nil)
			continue
		}
		zero, tol := 0.0, hotTolerance
		pool[hotKey{i, 0}] = encodeBody(qs, &zero)
		pool[hotKey{i, 1}] = encodeBody(qs, &tol)
	}
	return pool
}

// hotSequence returns serving client c's request sequence: hotSeqLen
// Zipf(s=1.1) draws over the pool, seeded by (workload seed, c). The
// client cycles through it for the whole run.
func hotSequence(seed int64, c int) []hotKey {
	rng := randx.New(derive(seed, tagHotSequence, uint64(c)))
	z := rand.NewZipf(rng, hotZipfS, 1, hotPoolSize-1)
	seq := make([]hotKey, hotSeqLen)
	for i := range seq {
		k := hotKey{body: int(z.Uint64())}
		if hotQuartered(k.body) {
			k.variant = rng.Intn(2)
		}
		seq[i] = k
	}
	return seq
}

// distinctHotKeys returns how many distinct requests the clients'
// sequences hold: the number of computations a cache holding the
// whole pool performs in a run that completes every sequence once.
func distinctHotKeys(seed int64, clients int) int {
	seen := make(map[hotKey]bool)
	for c := 0; c < clients; c++ {
		for _, k := range hotSequence(seed, c) {
			seen[k] = true
		}
	}
	return len(seen)
}
