package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Spans of one goroutine nest: a child lies inside its
// parent's interval.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int32 // index into the episode's spans, -1 for the root
	ID     int64 // chunk index or control-round number
}

// tracer keeps an episode's spans in memory. A nil *tracer records
// nothing, so untraced episodes pay one nil check per call site and no
// clock reads. Not safe for concurrent use: spans are recorded on the
// benchmark's own goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer {
	//floclint:allow sim-time the benchmark measures wall-clock time
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 {
	//floclint:allow sim-time the benchmark measures wall-clock time
	return int64(time.Since(t.epoch))
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, id int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, ID: id})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// layerTimes is the per-name fold of an episode's spans.
type layerTimes struct {
	self  map[string]int64     // ns of self time: duration minus direct children
	durs  map[string][]float64 // seconds: every span's full duration
	wall  int64                // ns: root span duration
	other int64                // ns: root span self time, covered by no layer span
}

// fold computes each layer's self time. Children never overlap (one
// goroutine), so a span's self time is its duration minus the sum of its
// direct children's durations.
func (t *tracer) fold() layerTimes {
	lt := layerTimes{self: map[string]int64{}, durs: map[string][]float64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			lt.wall += d
			lt.other += d - child[i]
			continue
		}
		lt.self[s.Name] += d - child[i]
		lt.durs[s.Name] = append(lt.durs[s.Name], float64(d)/1e9)
	}
	return lt
}

// quantile returns the q-quantile of xs (nearest rank), or 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// writeSpans writes one traced episode's spans as tab-separated values,
// one span per line after a header line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tstart_ns\tend_ns\tparent\tid")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.ID)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
