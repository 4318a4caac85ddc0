package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark's own code takes the clock around the call.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"` // 0: no parent
	Op     int64     `json:"op,omitempty"`     // 0: not part of a workload op
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	nextID int64
	spans  []span
	counts map[string][]float64
	prefix string // probePrefix while an off-path probe runs
}

// probePrefix marks the spans and counts of an off-path probe, so they
// never mix with those of the workload's own calls.
const probePrefix = "probe:"

// probing runs f with every span and count it records named under
// probePrefix.
func (t *tracer) probing(f func() error) error {
	t.mu.Lock()
	t.prefix = probePrefix
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.prefix = ""
		t.mu.Unlock()
	}()
	return f()
}

func newTracer() *tracer { return &tracer{counts: make(map[string][]float64)} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved id (0 reserves one) and
// returns its id.
func (t *tracer) add(id int64, name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	if !strings.HasPrefix(name, probePrefix) { // named as a probe's already
		name = t.prefix + name
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// time runs f inside a span and returns the span's duration.
func (t *tracer) time(name string, parent, op int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(0, name, parent, op, start, end)
	return end.Sub(start)
}

// count records one observation of a work counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[t.prefix+name] = append(t.counts[t.prefix+name], v)
	t.mu.Unlock()
}

// durations returns the durations (ms) of every span with the name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (t *tracer) countsOf(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// spanSummary is one row of the self-time table.
type spanSummary struct {
	name      string
	n         int
	p50, self float64 // ms: median duration, median self time
}

// selfTimes summarises every span name: its median duration and its
// median self time — the duration minus the part of the interval its
// child spans cover.
func (t *tracer) selfTimes() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(s.dur()-covered(s, children[s.ID])))
	}
	var out []spanSummary
	for name, d := range durs {
		out = append(out, spanSummary{name: name, n: len(d), p50: median(d), self: median(selfs[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeJSONL writes every span, one JSON object a line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
