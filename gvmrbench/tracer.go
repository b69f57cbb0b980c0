package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call the benchmark made into a layer (or one
// request a layer it owns served). Frame ties the spans of one frame
// together; Parent names the span that caused it (0 = a root).
type span struct {
	ID, Parent int64
	Frame      int
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (t *tracer) begin(name string, parent int64, frame int) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.ids.Add(1)
	start := time.Since(t.epoch)
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Frame: frame, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (a layer's self time). Children
// are clipped to their parent and overlapping children count once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// namesUnder returns the names of the spans whose root span is named
// root.
func namesUnder(spans []span, root string) map[string]bool {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := map[string]bool{}
	for _, s := range spans {
		r := s
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		if r.Name == root {
			out[s.Name] = true
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeChrome writes spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, one track per frame.
func writeChrome(path string, spans []span, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Frame + 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "frame": s.Frame},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "metadata": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
