package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Spans of one run share its run id;
// parent indexes the enclosing span (-1 at the top).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer was created
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Allocs uint64  `json:"allocs"` // heap objects allocated inside the span

	allocs0 uint64
}

// tracer keeps a run's spans in memory; dump writes them out at the end. A
// nil tracer records nothing, so set-up code takes one either way.
type tracer struct {
	run    string
	epoch  time.Time
	spans  []span
	allocs []metrics.Sample // reused, so reading it allocates nothing
}

func newTracer(run string) *tracer {
	return &tracer{
		run:    run,
		epoch:  time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// objects returns the heap objects allocated so far.
func (t *tracer) objects() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:    name,
		Parent:  parent,
		Run:     t.run,
		allocs0: t.objects(),
		Start:   time.Since(t.epoch).Seconds(),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Seconds()
	s.Allocs = t.objects() - s.allocs0
}

// do runs f inside a span named name under parent.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	total  float64 // seconds
	self   float64 // seconds not covered by child spans
	allocs uint64
}

// totals aggregates spans by name. A span's self time is its duration minus
// its children's; calls are serial, so children never overlap.
func (t *tracer) totals() map[string]*layerTotals {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.total += d
		lt.self += d - child[i]
		lt.allocs += s.Allocs
	}
	return out
}

// dump writes the spans to <dir>/spans-<workload>.json.
func (t *tracer) dump(dir, workload string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), b, 0o644)
}
