package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// A tracer records spans around the benchmark's calls into the program's
// layers: name, start, end, the span that caused it, and the request it
// belongs to. Spans go into a preallocated buffer (bounded, so long runs
// cannot grow it) and are written out once the benchmark ends; per-name
// totals are kept as spans finish, so the metrics stay exact even when
// the buffer is full.
//
// A nil *tracer is the untraced mode; workloads guard every span with
// `if tr != nil`, so untraced runs pay one branch per boundary.
type tracer struct {
	epoch time.Time
	names []string
	stats []spanStats

	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
}

// spanID names a span kind; ids index tracer.names.
type spanID int

// spanRec is one finished span as written out.
type spanRec struct {
	Name   spanID
	ID     int64
	Parent int64 // 0 = none
	Req    int64
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// spanStats aggregates every finished span of one name.
type spanStats struct {
	count atomic.Int64
	total atomic.Int64 // ns
}

// active is an open span. It lives on the caller's stack; a child adds
// its duration to its parent's child total when it finishes, so the
// parent's self time is its duration minus child.
type active struct {
	name   spanID
	id     int64
	parent *active
	req    int64
	start  int64
	child  int64
}

// maxSpans bounds the written-out trace (about 12 MB of records).
const maxSpans = 1 << 18

func newTracer(names []string) *tracer {
	return &tracer{
		epoch: time.Now(),
		names: names,
		stats: make([]spanStats, len(names)),
		// Pages of the buffer are touched only as spans land in them.
		spans: make([]spanRec, maxSpans),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of the given name under parent (nil for a root).
// The tracer must be non-nil; callers guard with `if tr != nil`.
func (t *tracer) begin(name spanID, parent *active, req int64) active {
	return active{name: name, id: t.next.Add(1), parent: parent, req: req, start: t.now()}
}

// end closes a span, folding it into the totals and the buffer, and
// returns its duration in ns.
func (t *tracer) end(a *active) int64 {
	e := t.now()
	d := e - a.start
	if a.parent != nil {
		a.parent.child += d
	}
	st := &t.stats[a.name]
	st.count.Add(1)
	st.total.Add(d)
	if a.id > maxSpans {
		t.dropped.Add(1)
		return d
	}
	var parent int64
	if a.parent != nil {
		parent = a.parent.id
	}
	// Each span owns slot id-1, so concurrent writers never share one.
	t.spans[a.id-1] = spanRec{Name: a.name, ID: a.id, Parent: parent, Req: a.req, Start: a.start, End: e}
	return d
}

// count returns how many spans of the name finished.
func (t *tracer) count(name spanID) int64 { return t.stats[name].count.Load() }

// totalNs returns the summed duration of the name's spans.
func (t *tracer) totalNs(name spanID) int64 { return t.stats[name].total.Load() }

// meanUs returns the name's mean span duration in microseconds.
func (t *tracer) meanUs(name spanID) float64 {
	n := t.count(name)
	if n == 0 {
		return 0
	}
	return float64(t.totalNs(name)) / float64(n) / 1e3
}

// write dumps the recorded spans as JSON lines into dir/file, after
// every span has finished. Slots of spans that were still open are
// skipped.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	n := t.next.Load()
	if n > maxSpans {
		n = maxSpans
	}
	recs := t.spans[:n]
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"spans\":%d,\"dropped\":%d}\n", n, t.dropped.Load())
	for _, r := range recs {
		if r.ID == 0 {
			continue
		}
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			t.names[r.Name], r.ID, r.Parent, r.Req, r.Start, r.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
