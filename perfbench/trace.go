package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one session or request share
// Req; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A disabled
// recorder records nothing: start returns 0 and end ignores it, so the
// untraced pass runs the same calls without the clock reads.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// start opens a span and returns its ID (0 when disabled).
func (r *recorder) start(name string, parent, req int) int {
	if !r.on {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval as a span.
func (r *recorder) add(name string, parent, req int, from, to time.Time) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(from.Sub(r.t0)), End: int64(to.Sub(r.t0))})
	r.mu.Unlock()
	return id
}

// durations returns the durations of every span named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func (r *recorder) selfTimes() map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// unaccountedFrac is the share of the named root spans' wall time that
// no child span covers.
func (r *recorder) unaccountedFrac(root string) float64 {
	self := r.selfTimes()
	var wall, un time.Duration
	for _, s := range r.spans {
		if s.Name == root && s.Parent == 0 {
			wall += s.dur()
			un += self[s.ID]
		}
	}
	return ratio(float64(un), float64(wall))
}

// write stores the spans as NDJSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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

// msOf and usOf convert durations to float milliseconds and microseconds.
func msOf(ds []time.Duration) []float64 { return scale(ds, 1e6) }
func usOf(ds []time.Duration) []float64 { return scale(ds, 1e3) }

func scale(ds []time.Duration, per float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / per
	}
	return out
}
