package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one sweep
// cell or one gateway launch share a Trace; Parent names the span that
// caused this one (0 for a root). Count is the work the call did
// (instructions, GPU ops), recorded at the same boundary.
type Span struct {
	Name   string            `json:"name"`
	Trace  string            `json:"trace"`
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Self   int64             `json:"self_ns"`
	Count  uint64            `json:"count,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Dur is the span's wall duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped rather than growing the process without limit.
const maxSpans = 1 << 18

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: every method is a no-op costing one comparison.
type Tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []Span
	dropped int
	// traces maps program-side identities (run document IDs) to the
	// trace of the sweep cell they belong to, so storage calls made
	// deep inside the program join the right trace.
	traces sync.Map
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// active is an open span; End records it.
type active struct {
	t *Tracer
	s Span
}

// Begin opens a span. On a nil tracer it returns an inert handle.
func (t *Tracer) Begin(name, trace string, parent uint64) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: Span{
		Name: name, Trace: trace, ID: t.nextID.Add(1), Parent: parent,
		Start: int64(time.Since(t.t0)),
	}}
}

// ID is the span's identifier, for use as a child's parent.
func (a *active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// SetTrace re-labels the span's trace, for calls whose trace is only
// known from their response (a submit learns its launch ID on return).
func (a *active) SetTrace(trace string) {
	if a != nil {
		a.s.Trace = trace
	}
}

// End closes the span with the work count and attributes it carried.
func (a *active) End(count uint64, attrs map[string]string) {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.t0))
	a.s.Count = count
	a.s.Attrs = attrs
	a.t.record(a.s)
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// bindTrace associates a program-side identity with a trace.
func (t *Tracer) bindTrace(key, trace string) {
	if t != nil {
		t.traces.Store(key, trace)
	}
}

// traceOf returns the trace bound to key, or "".
func (t *Tracer) traceOf(key string) string {
	if v, ok := t.traces.Load(key); ok {
		return v.(string)
	}
	return ""
}

// Spans returns the recorded spans with self times filled in.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	computeSelf(out)
	return out
}

// computeSelf sets each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children are
// merged, and children are clipped to the parent's interval).
func computeSelf(spans []Span) {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders total and self time per span name, the quickest
// answer to "where did the traced run's time go".
func selfTable(spans []Span) string {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	out := fmt.Sprintf("%-24s %9s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := by[n]
		out += fmt.Sprintf("%-24s %9d %12.6f %12.6f\n", n, a.n,
			time.Duration(a.total).Seconds(), time.Duration(a.self).Seconds())
	}
	return out
}
