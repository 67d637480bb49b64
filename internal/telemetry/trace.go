package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Tracer keeps a bounded ring of recent traces, keyed by ID (the
// runner uses the content-derived job ID, so a trace is addressable by
// the same ID clients already poll jobs with).  When the ring is full
// the oldest trace is evicted.  A nil *Tracer is a valid disabled
// tracer: Start returns a nil *Trace, whose spans are all no-ops, so
// instrumented code needs no conditionals.
type Tracer struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ring []string // creation order, for eviction
}

// defaultTraceRing is the ring size used when a capacity of 0 is
// requested.
const defaultTraceRing = 512

// NewTracer returns a tracer retaining up to capacity recent traces
// (0 means 512).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceRing
	}
	return &Tracer{
		cap:  capacity,
		byID: make(map[string]*Trace, capacity),
	}
}

// Start returns the trace with the given ID, creating it (and
// evicting the oldest trace if the ring is full) on first use.  On a
// nil tracer it returns nil.
func (t *Tracer) Start(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.byID[id]; ok {
		return tr
	}
	for len(t.ring) >= t.cap {
		delete(t.byID, t.ring[0])
		t.ring = t.ring[1:]
	}
	tr := &Trace{id: id}
	tr.root = &Span{tr: tr, name: "job", start: time.Now()}
	t.byID[id] = tr
	t.ring = append(t.ring, id)
	return tr
}

// Get returns the trace with the given ID, if still retained.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	return tr, ok
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	for _, id := range t.ring {
		out = append(out, t.byID[id])
	}
	return out
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// spanMu guards every trace's span tree.  One global mutex is enough:
// spans are touched a handful of times per job, never per simulated
// instruction, so contention is negligible against multi-hundred-ms
// simulations.
var spanMu sync.Mutex

// Trace is one job's span tree, rooted at the "job" span.
type Trace struct {
	id   string
	root *Span
}

// ID returns the trace's identifier.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the trace's root span ("job"), nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one named phase of a trace: a start/end interval with
// string attributes and child phases.  All methods are safe for
// concurrent use and no-ops on nil receivers, so disabled tracing
// costs nothing but the nil checks.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	end   time.Time
	attrs [][2]string
	kids  []*Span
}

// Child starts a new child phase and returns it.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	spanMu.Lock()
	s.kids = append(s.kids, c)
	spanMu.Unlock()
	return c
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	spanMu.Lock()
	s.attrs = append(s.attrs, [2]string{key, value})
	spanMu.Unlock()
}

// End marks the phase finished.  Ending twice keeps the first end.
func (s *Span) End() {
	if s == nil {
		return
	}
	spanMu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	spanMu.Unlock()
}

// SpanJSON is the wire form of one span, a node of the trace tree.
type SpanJSON struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurMS      float64           `json:"dur_ms"`
	InProgress bool              `json:"in_progress,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace.
type TraceJSON struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	DurMS float64   `json:"dur_ms"`
	Root  SpanJSON  `json:"root"`
}

// Snapshot renders the trace as its wire form.  In-progress spans
// report duration-so-far with in_progress set.
func (t *Trace) Snapshot() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	now := time.Now()
	spanMu.Lock()
	root := t.root.snapshotLocked(now)
	spanMu.Unlock()
	return TraceJSON{ID: t.id, Start: root.Start, DurMS: root.DurMS, Root: root}
}

func (s *Span) snapshotLocked(now time.Time) SpanJSON {
	out := SpanJSON{Name: s.name, Start: s.start}
	end := s.end
	if end.IsZero() {
		end = now
		out.InProgress = true
	}
	out.DurMS = float64(end.Sub(s.start)) / 1e6
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, kv := range s.attrs {
			out.Attrs[kv[0]] = kv[1]
		}
	}
	for _, c := range s.kids {
		out.Children = append(out.Children, c.snapshotLocked(now))
	}
	return out
}

// Phases returns the names of the root's direct children in start
// order — the job's phase breakdown, for tests and quick inspection.
func (t *Trace) Phases() []string {
	if t == nil {
		return nil
	}
	spanMu.Lock()
	defer spanMu.Unlock()
	kids := t.root.kids
	idx := make([]int, len(kids))
	for i := range kids {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return kids[idx[a]].start.Before(kids[idx[b]].start) })
	out := make([]string, len(kids))
	for i, j := range idx {
		out[i] = kids[j].name
	}
	return out
}
