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

// tracer records spans around the benchmark's calls into each layer of
// the program: name (the layer), start, end, parent span, and the id of
// the request or run the span belongs to. Spans stay in memory until
// the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per span.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLayers are the layers the traced run reports self time for, in
// report order.
var spanLayers = []string{
	"loadgen", "socket.write", "server", "socket.read",
	"l4igen", "parser", "compile", "run", "eval",
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that is
// recorded only when it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, req int64, layer string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// selfTimes returns, per layer, the mean self time of its spans in
// milliseconds: a span's duration minus the part of it that its child
// spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		total[s.Layer] += float64(s.End-s.Start-covered) / 1e6
		count[s.Layer]++
	}
	out := map[string]float64{}
	for l, n := range count {
		out[l] = total[l] / float64(n)
	}
	return out
}

// coverage is the length of the union of the children's intervals
// clipped to the parent's.
func coverage(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, reach int64 = 0, p.Start
	for _, k := range kids {
		s, e := max(k.Start, reach), min(k.End, p.End)
		if e > s {
			covered += e - s
			reach = e
		}
	}
	return covered
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
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
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
