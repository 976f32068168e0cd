package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanKind names a layer boundary the benchmark times: the span covers
// one call from the benchmark's own code into a public function.
type spanKind uint8

const (
	spanUpdate  spanKind = iota // oodb.Database.Update
	spanView                    // oodb.Database.View
	spanSend                    // oodb.Txn.Send inside an Update or View closure
	spanScan                    // oodb.Txn.ScanSend inside an Update closure
	spanRequest                 // client.Client.Start until the ack arrives
	spanStart                   // client.Client.Start
	spanKinds
)

var spanNames = [spanKinds]string{"update", "view", "send", "scan", "request", "start"}

// span is one recorded interval. IDs are unique per tracer; parent 0
// marks a root. Spans of one transaction share req.
type span struct {
	id, parent, req uint64
	start, end      int64 // nanoseconds since the tracer's base
	kind            spanKind
}

// spanAgg accumulates one kind's count, total and self time (the span's
// duration minus the part covered by its child spans).
type spanAgg struct {
	count       int64
	total, self int64
}

func (a spanAgg) meanUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / 1e3
}

func (a spanAgg) selfUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count) / 1e3
}

// tracer records one client goroutine's spans. The newest spans are kept
// in a fixed ring, written out when the run ends; aggregates cover every
// span. A nil *tracer records nothing, so untraced runs pay one nil check
// per boundary.
type tracer struct {
	base   time.Time
	ring   []span
	n      uint64 // spans recorded
	nextID uint64
	req    uint64
	agg    [spanKinds]spanAgg

	// The open root span of an embedded transaction.
	rootID             uint64
	rootStart, childNs int64
}

const spanRing = 1 << 15

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, ring: make([]span, spanRing)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span; childNs is the time its children cover.
func (t *tracer) add(id, parent, req uint64, kind spanKind, start, end, childNs int64) {
	t.ring[t.n%spanRing] = span{id: id, parent: parent, req: req, start: start, end: end, kind: kind}
	t.n++
	a := &t.agg[kind]
	a.count++
	a.total += end - start
	a.self += end - start - childNs
}

func (t *tracer) newID() uint64 {
	t.nextID++
	return t.nextID
}

// beginRoot opens the root span of a new transaction.
func (t *tracer) beginRoot() {
	if t == nil {
		return
	}
	t.req++
	t.rootID = t.newID()
	t.childNs = 0
	t.rootStart = t.now()
}

// endRoot closes the open root span.
func (t *tracer) endRoot(kind spanKind) {
	if t == nil {
		return
	}
	t.add(t.rootID, 0, t.req, kind, t.rootStart, t.now(), t.childNs)
}

// childStart returns the start time for a child of the open root.
func (t *tracer) childStart() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// child closes a leaf span that began at start under the open root.
func (t *tracer) child(kind spanKind, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.add(t.newID(), t.rootID, t.req, kind, start, end, 0)
	t.childNs += end - start
}

// resetAgg clears the aggregates (the ring keeps its spans).
func (t *tracer) resetAgg() { t.agg = [spanKinds]spanAgg{} }

// dump writes the spans still in the ring, oldest first, as JSON lines.
func (t *tracer) dump(path string, worker int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := uint64(0)
	if t.n > spanRing {
		first = t.n - spanRing
	}
	for i := first; i < t.n; i++ {
		s := &t.ring[i%spanRing]
		fmt.Fprintf(w, `{"worker":%d,"req":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			worker, s.req, s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
