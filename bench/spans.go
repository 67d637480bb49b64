package main

import (
	"sort"
	"time"
)

// span is one timed interval of an op: recorded by the client around
// its own calls, or stitched in from the daemon's trace of a job.  Both
// processes read the same host wall clock, so their spans share a
// timeline.
type span struct {
	name       string
	start, end time.Time
	attrs      map[string]string
	kids       []*span
}

// add appends a finished child span and returns it.
func (s *span) add(name string, start, end time.Time) *span {
	k := &span{name: name, start: start, end: end}
	s.kids = append(s.kids, k)
	return k
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is the span's duration minus the part of it that its
// children cover.  Overlapping children count once, and the parts of a
// child that lie outside the span do not count.
func selfTime(s *span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(s.kids))
	for _, k := range s.kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// layerOf names the module whose work a span's self time measures.
// The client's own "op" and "wait" spans belong to no layer: their self
// time is waiting that no layer explains, chiefly the poll interval.
func layerOf(s *span) string {
	switch s.name {
	case "submit", "poll", "read", "timeline":
		return "dlsimd"
	case "queued", "attempt", "backoff":
		return "runner"
	case "job":
		// The job span's own time is what lies outside its queued and
		// attempt children: chiefly the store write-through in finish.
		return "store"
	case "generate":
		return "workload"
	case "link":
		if s.attrs["pool_hit"] == "true" {
			return "pool"
		}
		return "linker"
	case "warmup", "measure", "measure-sampled":
		return "cpu"
	}
	return ""
}

// unattributed is the op's wall time minus the self time of every span
// below it that belongs to a layer.  It is negative when layers overlap
// in time, as a batch's two jobs do on two workers.
func unattributed(op *span) time.Duration {
	d := op.dur()
	walk(op, func(s *span) {
		if s != op && layerOf(s) != "" {
			d -= selfTime(s)
		}
	})
	return d
}

// walk calls fn on s and every span below it, parents first.
func walk(s *span, fn func(*span)) {
	fn(s)
	for _, k := range s.kids {
		walk(k, fn)
	}
}

// traceSpan is the wire form of one node of GET /v1/traces/{id}.
type traceSpan struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurMS    float64           `json:"dur_ms"`
	Attrs    map[string]string `json:"attrs"`
	Children []traceSpan       `json:"children"`
}

// toSpan converts a daemon trace node into the client's span form.
func (t traceSpan) toSpan() *span {
	s := &span{
		name:  t.Name,
		start: t.Start,
		end:   t.Start.Add(time.Duration(t.DurMS * float64(time.Millisecond))),
		attrs: t.Attrs,
	}
	for _, c := range t.Children {
		s.kids = append(s.kids, c.toSpan())
	}
	return s
}
