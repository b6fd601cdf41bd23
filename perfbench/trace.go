package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory. Spans are recorded by
// the benchmark's own code around each call into a layer; a nil *tracer
// (untraced run) records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// span is one timed call. Spans of one query share Query; Parent is the
// ID of the enclosing span (0 at a query's root).
type span struct {
	ID     int64
	Parent int64
	Query  int64
	Name   string
	Layer  string
	Lane   string
	Start  time.Time
	End    time.Time
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// id reserves a span ID, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, query int64, layer, name, lane string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name,
		Layer: layer, Lane: lane, Start: start, End: end})
	t.mu.Unlock()
}

// add records a finished span with a fresh ID and returns the ID.
func (t *tracer) add(parent, query int64, layer, name, lane string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, query, layer, name, lane, start, end)
	return id
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Layer] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON: one process per
// query (its span tree), one thread per lane, and the per-layer self times
// under otherData.
func (t *tracer) writeChrome(path string, self map[string]time.Duration) (int, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Query != spans[j].Query {
			return spans[i].Query < spans[j].Query
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int64          `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(spans)+16)
	named := map[int64]bool{}
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
		}
		if !named[s.Query] {
			named[s.Query] = true
			label := "query " + strconv.FormatInt(s.Query, 10)
			if s.Query == 0 {
				label = "micro-calls"
			}
			events = append(events, event{Name: "process_name", Ph: "M", Pid: s.Query,
				Args: map[string]any{"name": label}})
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: s.Query, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "query": s.Query},
		})
	}
	for lane, tid := range lanes {
		for q := range named {
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: q, Tid: tid,
				Args: map[string]any{"name": lane}})
		}
	}
	selfMs := map[string]float64{}
	for layer, d := range self {
		selfMs[layer] = durMs(d)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"self_ms_by_layer": selfMs},
	}); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}
