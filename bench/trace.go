package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is the index of the
// span that caused it (-1 for a root); spans of one request or one replayed
// request share Trace.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs (the ones end-to-end metrics come
// from) pay no tracing cost beyond a nil check.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace allocates the identifier the spans of one request share.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// start opens a span and returns its index (the parent of its children).
func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// layerTotals is the per-name aggregate written beside the spans.
type layerTotals struct {
	Count  int   `json:"count"`
	WallNS int64 `json:"wall_ns"`
	SelfNS int64 `json:"self_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent calls) or stick out of the parent; the covered part is
// the union of the child intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// totals aggregates closed spans by name.
func totals(spans []span) map[string]layerTotals {
	self := selfTimes(spans)
	out := make(map[string]layerTotals)
	for i, s := range spans {
		if s.EndNS < 0 {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.WallNS += s.EndNS - s.StartNS
		t.SelfNS += self[i]
		out[s.Name] = t
	}
	return out
}

// writeFile dumps the spans and the per-layer totals as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Layers map[string]layerTotals `json:"layers"`
		Spans  []span                 `json:"spans"`
	}{totals(t.spans), t.spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
