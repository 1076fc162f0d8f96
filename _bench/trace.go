package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share op; parent is the id of the span
// that made the call (0 for an op's root span). Times are offsets from
// the tracer's origin.
type span struct {
	id, parent, op int32
	name           string
	start, end     time.Duration
}

// layer is the span name's prefix up to the first dot: "world" for
// "world.run". Root and harness spans use the "bench" prefix.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced runs take the same code path
// at the cost of a nil check per call.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu; index i holds id i+1
	op    int32  // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the current offset from the tracer's origin.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// beginOp opens the root span of a new op and returns its id.
func (t *tracer) beginOp(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin(name, 0)
}

// begin opens a span under parent and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, op: t.op, name: name, start: start, end: -1})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = end
}

// add records a finished span whose times the caller measured itself
// (offsets from the tracer's origin). The per-record stream spans use it
// because whether a call was an ingest or a rescore is known only after
// the call.
func (t *tracer) add(name string, parent int32, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, op: t.op, name: name, start: start, end: end})
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(name string, parent int32, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may overlap one another (a concurrent goroutine's spans under
// the same parent), so overlapping time is subtracted once.
func selfTimes(spans []span) map[int32]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.end - s.start - covered(s.start, s.end, children[s.id])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the spans'
// intervals.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// layerSelf sums self time per layer over the given spans.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += self[s.id]
	}
	return out
}

// writeSpans writes spans as tab-separated lines (id, parent, op, name,
// start ns, end ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
