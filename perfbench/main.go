// Command perfbench is the repository benchmark: one workload per
// process, seeded inputs, every op's output checked, and a result line
// of end-to-end metrics (or, with --trace 1, per-layer metrics timed
// from outside each layer). See README.md for the workloads, the
// metrics and why they were chosen.
//
//	perfbench --workload <publish|estimate|serve-cold|serve-hot> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*env) (*outcome, error){
	"publish":    runPublish,
	"estimate":   runEstimate,
	"serve-cold": func(e *env) (*outcome, error) { return runServe(e, false) },
	"serve-hot":  func(e *env) (*outcome, error) { return runServe(e, true) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: publish, estimate, serve-cold or serve-hot")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long the ops are measured")
		trace    = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (publish|estimate|serve-cold|serve-hot), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// Scratch files and span dumps go where the build output goes.
	if err := runMain(os.Stdout, *workload, run, *seed, *seconds, *trace == 1, ".bench_build"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(out io.Writer, name string, run func(*env) (*outcome, error), seed int64, seconds int, traced bool, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	host := newHostInfo()
	host.refStart = hostRefMS()
	steal0, total0 := cpuTicks()
	e := &env{ctx: context.Background(), seed: seed, window: time.Duration(seconds) * time.Second, workdir: scratch}
	if traced {
		e.tr = newTracer()
	}
	o, err := run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	peak := peakRSSMB()
	host.refEnd = hostRefMS()
	host.stealPct = stealSince(steal0, total0)

	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, traced)
	fmt.Fprintln(out, host)
	for _, n := range o.notes {
		fmt.Fprintln(out, n)
	}
	e2e := endToEnd(o, peak)
	printEndToEnd(out, e2e)
	res := result{Attempted: o.ops.attempted + o.checks, Failed: o.ops.failed + o.failedChecks}
	fmt.Fprintf(out, "ops attempted=%d failed=%d (workload ops %d, extra checks %d)\n", res.Attempted, res.Failed, o.ops.attempted, o.checks)
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metric)
	if traced {
		printTraceOverhead(out, o)
		layers := perLayer(e.tr, (host.refStart+host.refEnd)/2)
		printPerLayer(out, layers)
		printSelfTimes(out, e.tr)
		for _, m := range layers {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		dump := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.writeJSONL(dump); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans written to %s\n", dump)
	} else {
		for _, m := range e2e {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	// A metric without samples (every op failed, say) is reported as
	// 0 and the run as incorrect, so the result line is always printed.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(out, "metric %s has no samples\n", name)
			res.Metrics[name] = metric{Unit: m.Unit}
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one reported figure with its sample count and a note.
type namedMetric struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

// endToEnd computes the six end-to-end metrics. Latencies come from
// the untraced ops (all ops in an untraced run, the interleaved
// untraced half in a traced one); throughput and CPU per op from the
// rate ops.
func endToEnd(o *outcome, peakMB float64) []namedMetric {
	lat := o.ops.lat
	completed := o.rate.completed()
	tv, pct, ok := tail(lat)
	tailNote := fmt.Sprintf("p%.2f", pct)
	if !ok {
		tailNote = "max: fewer than 11 samples"
	}
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	return []namedMetric{
		{name: "op_p50_ms", unit: "ms", value: median(lat), samples: len(lat)},
		{name: "op_tail_ms", unit: "ms", value: tv, samples: len(lat), note: tailNote},
		{name: "ops_per_s", unit: "1/s", value: float64(completed) / o.rate.busy.Seconds(), samples: completed,
			note: fmt.Sprintf("over %.3f s busy wall time", o.rate.busy.Seconds())},
		{name: "cpu_ms_per_op", unit: "ms", value: ms(o.rate.cpu) / float64(completed), samples: completed},
		{name: "peak_rss_mb", unit: "MiB", value: peakMB, samples: 1},
		{name: "setup_s", unit: "s", value: median(setups), samples: len(setups), note: "median of set-up repetitions"},
	}
}

func printEndToEnd(out io.Writer, metrics []namedMetric) {
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range metrics {
		fmt.Fprintf(out, "  %-16s %14.4f %-6s n=%-6d %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
}

// printTraceOverhead compares the interleaved traced and untraced ops
// of a traced run.
func printTraceOverhead(out io.Writer, o *outcome) {
	on, off := o.ops.tracedLat, o.ops.lat
	fmt.Fprintf(out, "tracing overhead: op p50 traced %.4f ms (n=%d) - untraced %.4f ms (n=%d) = %+.4f ms\n",
		median(on), len(on), median(off), len(off), median(on)-median(off))
}

func printPerLayer(out io.Writer, metrics []namedMetric) {
	fmt.Fprintln(out, "per-layer:")
	for _, m := range metrics {
		fmt.Fprintf(out, "  %-28s %14.4f %-6s n=%-6d %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
}

func printSelfTimes(out io.Writer, tr *tracer) {
	fmt.Fprintln(out, "spans (ms):")
	fmt.Fprintf(out, "  %-28s %8s %12s %12s\n", "name", "n", "p50", "self p50")
	for _, s := range tr.selfTimes() {
		fmt.Fprintf(out, "  %-28s %8d %12.4f %12.4f\n", s.name, s.n, s.p50, s.self)
	}
}

// fromProbe is the note on a per-layer figure taken from a probe.
const fromProbe = "probe"

// perLayer computes every per-layer metric from a traced run's spans
// and counts. A figure comes from the workload's own calls, and only
// when the workload made no such call (the layer is off its path, or
// serve-cold's loop, which never hits the cache) from a probe's, so
// the two populations never mix.
func perLayer(tr *tracer, refMS float64) []namedMetric {
	pick := func(get func(string) []float64, name string) ([]float64, string) {
		if own := get(name); len(own) > 0 {
			return own, ""
		}
		return get(probePrefix + name), fromProbe
	}
	span := func(name, metric string) namedMetric {
		d, note := pick(tr.durations, name)
		return namedMetric{name: metric, unit: "ms", value: median(d), samples: len(d), note: note}
	}
	count := func(name, unit string) namedMetric {
		c, note := pick(tr.countsOf, name)
		return namedMetric{name: name, unit: unit, value: median(c), samples: len(c), note: note}
	}
	probe := span("core.probe", "core.probe_ms")
	uniq := span("core.uniqueness", "core.uniqueness_ms")
	scan := span("adversary.scan", "adversary.scan_ms")
	build := span("uncertain.build", "uncertain.build_ms")
	selectAssign := namedMetric{name: "core.select_assign_ms", unit: "ms",
		value:   probe.value - uniq.value - obfTrials*(build.value+scan.value),
		samples: probe.samples, note: "derived: probe - uniqueness - t*(build + scan)"}

	batches, note := pick(tr.durations, "query.batch")
	alone := tr.durations("query.sample_alone")
	if note != "" {
		alone = tr.durations(probePrefix + "query.sample_alone")
	}
	share := namedMetric{name: "query.sample_share", unit: "ratio", value: sum(alone) / sum(batches),
		samples: len(batches), note: strings.TrimPrefix(fmt.Sprintf("%s; base: %.4f ms of batches", note, sum(batches)), "; ")}

	hits, misses := count("qserve.cache.hits", "count"), count("qserve.cache.misses", "count")
	ratio := namedMetric{name: "qserve.cache.hit_ratio", unit: "ratio", value: hits.value / (hits.value + misses.value),
		samples: 1, note: strings.TrimPrefix(fmt.Sprintf("%s; base: %.0f lookups", hits.note, hits.value+misses.value), "; ")}

	return []namedMetric{
		count("core.probes", "count"),
		count("core.trials", "count"),
		probe, uniq, scan, build, selectAssign,
		span("uncertain.sample", "uncertain.sample_ms"),
		count("sampling.worlds", "count"),
		span("sampling.scalars", "sampling.scalars_ms"),
		span("anf.distances", "anf.distances_ms"),
		span("stats.clustering", "stats.clustering_ms"),
		span("query.batch", "query.batch_ms"),
		count("query.worlds", "count"),
		share,
		span("qserve.rtt_hit", "qserve.rtt_hit_ms"),
		span("qserve.rtt_miss", "qserve.rtt_miss_ms"),
		count("qserve.overhead_ms", "ms"),
		hits, misses,
		count("qserve.cache.computations", "count"),
		count("qserve.cache.coalesced", "count"),
		count("qserve.cache.shared_runs", "count"),
		count("qserve.cache.shared_batches", "count"),
		count("qserve.cache.bytes", "bytes"),
		ratio,
		span("ugbin.write", "ugbin.write_ms"),
		span("ugbin.load", "ugbin.load_ms"),
		{name: "host.ref_ms", unit: "ms", value: refMS, samples: 2, note: "mean of run start and end; drift diagnostic"},
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
