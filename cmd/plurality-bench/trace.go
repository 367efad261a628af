package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share a trace id; a trace's root span has parent 0.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory until they are written
// out at exit. A nil *tracer records nothing, so untraced code paths call
// the same methods. Spans are recorded only around calls in this package;
// nothing inside the engines is instrumented.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named name under parent (0 starts a new trace) and
// returns its id, which is 0 for a nil tracer.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1}
	if parent == 0 {
		t.traces++
		s.Trace = t.traces
	} else {
		s.Trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id; id 0 (no span) is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time in seconds; the
// time is measured whether or not t records spans.
func (t *tracer) timed(parent int, name string, f func() error) (float64, error) {
	id := t.begin(parent, name)
	start := time.Now()
	err := f()
	sec := time.Since(start).Seconds()
	t.end(id)
	return sec, err
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTime is one span name's aggregate in a traced pass.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of that interval its child spans cover; children may
// overlap one another (concurrent requests under one step), so the covered
// part is the union of their intervals. Unfinished spans are skipped.
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		a.Total += time.Duration(s.End - s.Start)
		a.Self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	out := make([]selfTime, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, lo, hi int64
	for i, v := range iv {
		switch {
		case i == 0:
			lo, hi = v[0], v[1]
		case v[0] > hi:
			total += hi - lo
			lo, hi = v[0], v[1]
		default:
			hi = max(hi, v[1])
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total
}

// printSelfTimes writes one line per span name: calls, total and self time.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %6s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, a := range selfTimes(spans) {
		fmt.Fprintf(w, "%-28s %6d %12.6f %12.6f\n", a.Name, a.Count, a.Total.Seconds(), a.Self.Seconds())
	}
}
