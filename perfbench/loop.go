package main

import (
	"context"
	"sync"
	"time"
)

// env is what every workload receives: the run's parameters, the
// tracer (nil unless the run is traced) and a scratch directory.
type env struct {
	ctx     context.Context
	seed    int64
	window  time.Duration
	tr      *tracer
	workdir string
}

// opRecord is one op of the closed loop while it runs; the loop keeps
// only its latency, so even a run of many short ops adds little to the
// process's peak RSS.
type opRecord struct {
	client, index int
	start, end    time.Time
	ok            bool
	traced        bool  // this op runs with tracing on
	id            int64 // span id of a traced op
	// timeCPU asks measure to read the process CPU around the interval
	// too; cpu is what it read.
	timeCPU bool
	cpu     time.Duration
}

// measure times f as the op's measured interval. Checks and replays
// run outside it.
func (r *opRecord) measure(f func()) {
	var c0 time.Duration
	if r.timeCPU {
		c0 = processCPU()
	}
	r.start = time.Now()
	f()
	r.end = time.Now()
	if r.timeCPU {
		r.cpu = processCPU() - c0
	}
}

// loopStats aggregates the ops of one or more closed loops.
type loopStats struct {
	lat, tracedLat    []float64 // ms, ops that passed their checks
	attempted, failed int
	// busy is the wall time ops were in flight: the sum of the op
	// intervals with one caller (checks between ops do not count), the
	// loop's span with several.
	busy time.Duration
	// cpu is the process CPU the ops took: summed over the op
	// intervals with one caller (like busy, so the checks between ops
	// do not count), over the whole loop with several (server and
	// clients together).
	cpu time.Duration
}

func (s *loopStats) merge(o loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.tracedLat = append(s.tracedLat, o.tracedLat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.busy += o.busy
	s.cpu += o.cpu
}

func (s *loopStats) completed() int { return len(s.lat) + len(s.tracedLat) }

// outcome is what a workload run leaves for the report.
type outcome struct {
	setups []time.Duration
	ops    loopStats
	// rate holds the ops throughput and CPU per op are computed over:
	// all ops, except on serve-hot, where they are the steady phase
	// after every client has sent its whole sequence once.
	rate loopStats
	// checks counts correctness checks made outside the workload ops
	// (replays, probe requests); failedChecks those that failed.
	checks, failedChecks int
	// notes are printed with the report.
	notes []string
}

func (o *outcome) check(ok bool) {
	o.checks++
	if !ok {
		o.failedChecks++
	}
}

// closedLoop runs `clients` callers, each issuing its next op only
// after the previous one returned. Client c numbers its ops from
// first and stops once window has passed and it has issued at least
// minOps ops. In a traced run a client's ops alternate between
// untraced and traced blocks of `cycle` ops, so the tracing overhead
// is measured on interleaved ops; cycle is the length of the
// workload's seed cycle, so both halves run every seed equally often.
func closedLoop(e *env, clients, first, minOps, cycle int, window time.Duration, op func(r *opRecord)) loopStats {
	per := make([]loopStats, clients)
	var wg sync.WaitGroup
	c0 := processCPU()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for i := first; i < first+minOps || time.Since(start) < window; i++ {
				if e.ctx.Err() != nil {
					return
				}
				// With one caller the process CPU is the op's own, so
				// it is read around the measured interval alone.
				r := opRecord{client: c, index: i, timeCPU: clients == 1}
				if e.tr != nil && (i/cycle)%2 == 1 {
					r.traced = true
					r.id = e.tr.id()
				}
				op(&r)
				if clients == 1 {
					st.cpu += r.cpu
					st.busy += r.end.Sub(r.start)
				}
				st.attempted++
				switch {
				case !r.ok:
					st.failed++
				case r.traced:
					st.tracedLat = append(st.tracedLat, ms(r.end.Sub(r.start)))
				default:
					st.lat = append(st.lat, ms(r.end.Sub(r.start)))
				}
				if r.traced {
					e.tr.add(r.id, "op", 0, r.id, r.start, r.end)
				}
			}
		}(c)
	}
	wg.Wait()
	var all loopStats
	for _, p := range per {
		all.merge(p)
	}
	if clients > 1 {
		all.busy = time.Since(start)
		all.cpu = processCPU() - c0
	}
	return all
}

// repeatSetup runs setup at least minReps times and until minTotal has
// been spent (at most maxReps times), returning each repetition's
// duration. Each call replaces the previous one's state; the caller
// keeps the last.
func repeatSetup(minReps, maxReps int, minTotal time.Duration, setup func(rep int) (time.Duration, error)) ([]time.Duration, error) {
	var times []time.Duration
	var spent time.Duration
	for rep := 0; rep < maxReps && (rep < minReps || spent < minTotal); rep++ {
		d, err := setup(rep)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		spent += d
	}
	return times, nil
}
