package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from
// the benchmark's side of the call. Spans of one job share Job; Parent
// is the ID of the enclosing span (-1 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the measured loops are
// the same code with and without tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent, job int, f func()) {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path, after a first line
// holding header.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layerTime is one span name's reduction: summed self time and calls.
type layerTime struct {
	Self  time.Duration
	Calls int
}

// meanSeconds is the mean self time per call, in seconds.
func (l layerTime) meanSeconds() float64 {
	return ratio(l.Self.Seconds(), float64(l.Calls))
}

// selfTimes reduces spans to per-name self time: a span's duration
// minus the part of its interval that its children cover. Children may
// overlap each other (concurrent calls); the covered part is the union
// of their intervals, clipped to the parent's. Unclosed spans are
// ignored.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Self += self
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]time.Duration(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, in := range iv {
		a, b := max(in[0], lo), min(in[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}
