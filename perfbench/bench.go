package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/serv"
	"repro/oodb"
)

// config is one invocation's settings.
type config struct {
	seed   uint64
	window time.Duration
	trace  bool
	out    string // directory for span dumps
	runDir string // this process's WAL directories and sockets, removed at exit
}

// workload is one seeded set of inputs and how to set it up; the
// set-up also creates the closed-loop clients.
type workload struct {
	name  string
	setup func(cfg *config, round int) (env, setupTimes, error)
	// setups is how many times a run sets the workload up: setup_s is
	// their median and the last set-up is the one measured. Cheap
	// set-ups repeat more, so that the median stays steady.
	setups int
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	compile, populate time.Duration
	objects           int
}

// env is a set-up workload: a database (and, for served workloads, its
// server and clients) plus the client goroutines' state.
type env interface {
	// workers returns the closed-loop clients, created once per run.
	workers() []worker
	// counters snapshots every cumulative counter the metrics use.
	counters() counts
	// verify checks the database against what the acknowledged
	// transactions imply.
	verify() error
	close() error
}

// worker is one closed-loop client goroutine's state. run issues
// transactions until deadline and records into t; tr is nil when the
// window is untraced.
type worker interface {
	run(deadline time.Time, tr *tracer, t *tally)
}

// tally is what one client saw in one window.
type tally struct {
	upd, read, scan opTally
	failed          int64
	attempts        int64 // Update closure calls
	mismatches      int64
	firstMismatch   string
}

// opTally is one operation class: every latency, failed ones included.
type opTally struct {
	lat       samples
	committed int64
}

// record counts one finished transaction of class o and reports whether
// it committed. A failure's latency is recorded as beyond every limit.
func (t *tally) record(o *opTally, lat time.Duration, err error) bool {
	if err != nil {
		t.failed++
		o.lat.addFailed()
		return false
	}
	o.committed++
	o.lat.add(lat)
	return true
}

func (t *tally) committed() int64 { return t.upd.committed + t.read.committed + t.scan.committed }

func (t *tally) mismatch(format string, args ...any) {
	if t.mismatches == 0 {
		t.firstMismatch = fmt.Sprintf(format, args...)
	}
	t.mismatches++
}

func (t *tally) merge(o *tally) {
	for _, p := range [][2]*opTally{{&t.upd, &o.upd}, {&t.read, &o.read}, {&t.scan, &o.scan}} {
		p[0].lat.merge(&p[1].lat)
		p[0].committed += p[1].committed
	}
	t.failed += o.failed
	t.attempts += o.attempts
	if t.mismatches == 0 {
		t.firstMismatch = o.firstMismatch
	}
	t.mismatches += o.mismatches
}

// counts is a flat snapshot of cumulative counters, keyed by name.
type counts map[string]float64

// sub returns c − o key by key.
func (c counts) sub(o counts) counts {
	d := make(counts, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// registryHists are the histograms read from Database.MetricsJSON.
var registryHists = map[string]string{
	"favcc_lock_wait_seconds":            "lock_wait",
	`favserv_request_seconds{op="txn"}`:  "srv_txn",
	`favserv_request_seconds{op="view"}`: "srv_view",
}

// snapshotCounters reads the database's, server's and Go runtime's
// counters. It allocates and stops the world briefly, so it runs only at
// window boundaries.
func snapshotCounters(db *oodb.Database, srv *serv.Server) counts {
	c := counts{}
	s := db.Stats()
	for k, v := range map[string]int64{
		"lock_requests": s.LockRequests, "lock_blocks": s.Blocks,
		"deadlocks": s.Deadlocks, "retries": s.Retries, "snapshots": s.Snapshots,
		"wal_records": s.WALRecords, "wal_batches": s.WALBatches, "wal_bytes": s.WALBytes,
	} {
		c[k] = float64(v)
	}
	var buf bytes.Buffer
	if err := db.MetricsJSON(&buf); err == nil {
		var reg map[string]json.RawMessage
		if json.Unmarshal(buf.Bytes(), &reg) == nil {
			for key, name := range registryHists {
				var h struct{ Count, Sum float64 }
				if raw, ok := reg[key]; ok && json.Unmarshal(raw, &h) == nil {
					c[name+"_count"], c[name+"_sum_s"] = h.Count, h.Sum
				}
			}
			var v float64
			if json.Unmarshal(reg["favcc_mvcc_versions_published_total"], &v) == nil {
				c["versions"] = v
			}
		}
	}
	if srv != nil {
		st := srv.Stats()
		c["srv_txns"], c["srv_views"] = float64(st.Txns), float64(st.Views)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"], c["alloc_bytes"], c["gc_cycles"] = float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.NumGC)
	return c
}

// window is one measured interval of the closed loop.
type window struct {
	elapsed time.Duration
	tally   tally
	delta   counts // counter deltas over the interval
	spans   [spanKinds]spanAgg
}

// measure drives every worker for d and returns what happened. With
// trs non-nil, worker i records spans into trs[i].
func measure(e env, ws []worker, d time.Duration, trs []*tracer) window {
	for _, tr := range trs {
		tr.resetAgg()
	}
	before := e.counters()
	tallies := make([]tally, len(ws))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, w := range ws {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(deadline, tr, &tallies[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := e.counters()
	win := window{elapsed: elapsed, delta: after.sub(before)}
	for i := range tallies {
		win.tally.merge(&tallies[i])
	}
	for _, tr := range trs {
		for k := range win.spans {
			win.spans[k].count += tr.agg[k].count
			win.spans[k].total += tr.agg[k].total
			win.spans[k].self += tr.agg[k].self
		}
	}
	return win
}

// combine merges windows measured under the same tracing setting.
func combine(ws ...window) window {
	out := window{delta: counts{}}
	for i := range ws {
		w := &ws[i]
		out.elapsed += w.elapsed
		out.tally.merge(&w.tally)
		out.delta.add(w.delta)
		for k := range out.spans {
			out.spans[k].count += w.spans[k].count
			out.spans[k].total += w.spans[k].total
			out.spans[k].self += w.spans[k].self
		}
	}
	return out
}

func (w *window) txnPerS() float64 {
	return float64(w.tally.committed()) / w.elapsed.Seconds()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolating linearly between the
// two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
