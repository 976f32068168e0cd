// Command perfbench is the repository's benchmark. It drives one of
// three seeded, closed-loop workloads through the public layers (oodb,
// oodb/client and the favserv server in internal/serv), all under the
// paper's Fine strategy, checks that the database holds what the
// acknowledged transactions imply, and prints its metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from spans the benchmark
// records around each call into a public function and from counter
// deltas over the traced intervals. Run it through run.sh, which builds
// it from the checkout first:
//
//	bash perfbench/run.sh --workload embedded-oltp --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var workloads = []workload{
	{name: "embedded-oltp", setup: setupOLTP, setups: 7},
	{name: "wire-durable", setup: setupWire, setups: 7},
	{name: "cad-contended", setup: setupCAD, setups: 31},
}

// metricDef is one metric as BENCHMARK.json declares it. The file is
// the one list of metric names and units: the program prints exactly the
// metrics it declares for the mode and fails if it did not measure one.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all to run each in turn")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for WAL files, sockets and span dumps")
	specPath := fs.String("spec", "BENCHMARK.json", "file declaring the metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (embedded-oltp, wire-durable, cad-contended or all), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := sp.EndToEnd
	if *trace == 1 {
		defs = sp.PerLayer
	}
	cfg := &config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if abs, err := filepath.Abs(cfg.out); err == nil {
		cfg.out = abs
	}
	cfg.runDir = filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	fmt.Fprintln(stdout, hostFingerprint())
	code := 0
	for _, w := range selected {
		if c := runOne(w, cfg, defs, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report and result line.
func runOne(w *workload, cfg *config, defs []metricDef, stdout, stderr io.Writer) int {
	res, err := execute(w, cfg)
	os.RemoveAll(cfg.runDir)
	if err == nil {
		var summary any
		if summary, err = res.summary(defs); err == nil {
			for _, line := range res.report {
				fmt.Fprintln(stdout, "# "+line)
			}
			err = json.NewEncoder(stdout).Encode(summary)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// hostSteal returns the seconds of CPU time the hypervisor has taken
// from this machine's CPUs since boot (the steal column of /proc/stat),
// or 0 where that is not available. Steal slows every wall-clock metric,
// so the report states how much there was.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// hostFingerprint names the machine a result was measured on.
func hostFingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	report            []string
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: the declared metrics, each of which the
// run must have measured.
func (r *result) summary(defs []metricDef) (any, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // JSON has no infinity; a failed sample reads as the largest value
		}
		ms[d.Name] = metricValue{Value: v, Unit: d.Unit}
		r.note("metric %-28s %14.4f %s", d.Name, v, d.Unit)
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms}, nil
}

// execute sets the workload up w.setups times, keeps the last set-up,
// measures it, and verifies the database.
func execute(w *workload, cfg *config) (*result, error) {
	res := &result{correct: true, metrics: map[string]float64{}}
	var (
		e                        env
		setupS, compileMs, popUs []float64
	)
	for round := range w.setups {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", round-1, err)
			}
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		ne, st, err := w.setup(cfg, round)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e = ne
		setupS = append(setupS, d.Seconds())
		compileMs = append(compileMs, float64(st.compile)/1e6)
		popUs = append(popUs, float64(st.populate)/1e3/float64(st.objects))
	}
	defer e.close()
	// Two collections: the first leaves the discarded set-ups' pooled
	// objects in sync.Pool victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / 1e6

	ws := e.workers()
	warm := measure(e, ws, min(time.Second, cfg.window/4), nil)
	var measured []window
	if !cfg.trace {
		runtime.GC()
		steal0, t0 := hostSteal(), time.Now()
		win := measure(e, ws, cfg.window, nil)
		steal := (hostSteal() - steal0) / float64(runtime.NumCPU()) / time.Since(t0).Seconds()
		measured = append(measured, win)
		res.endToEnd(&win)
		res.note("host steal %.1f%% of CPU time during the window", 100*steal)
		res.metrics["setup_s"] = median(setupS)
		res.metrics["live_heap_mb"] = liveHeapMB
	} else {
		trs := make([]*tracer, len(ws))
		base := time.Now()
		for i := range trs {
			trs[i] = newTracer(base)
		}
		// Alternate untraced and traced quarters so that drift over the
		// run (log growth, version churn) falls on both sides alike.
		q := cfg.window / 4
		u1 := measure(e, ws, q, nil)
		t1 := measure(e, ws, q, trs)
		u2 := measure(e, ws, q, nil)
		t2 := measure(e, ws, q, trs)
		measured = append(measured, u1, t1, u2, t2)
		untraced, traced := combine(u1, u2), combine(t1, t2)
		res.perLayer(&untraced, &traced)
		res.metrics["compile_ms"] = median(compileMs)
		res.metrics["populate_us_per_object"] = median(popUs)
		if err := dumpSpans(cfg, w.name, trs); err != nil {
			res.note("span dump failed: %v", err)
		}
	}
	all := combine(measured...)
	res.attempted = all.tally.committed() + all.tally.failed
	res.failed = all.tally.failed
	res.note("workload=%s seed=%d trace=%t window_s=%.3f setups=%d setup_s=%v",
		w.name, cfg.seed, cfg.trace, all.elapsed.Seconds(), w.setups, setupS)
	res.note("samples update=%d read=%d scan=%d failed=%d",
		all.tally.upd.lat.n, all.tally.read.lat.n, all.tally.scan.lat.n, all.tally.failed)
	for _, t := range []*tally{&warm.tally, &all.tally} {
		if t.mismatches > 0 {
			res.correct = false
			res.note("MISMATCH: %d results disagree with acknowledged commits, first: %s", t.mismatches, t.firstMismatch)
		}
	}
	if err := e.verify(); err != nil {
		res.correct = false
		res.note("MISMATCH: %v", err)
	}
	return res, nil
}

// endToEnd fills the end-to-end metrics from one untraced window:
// committed transactions over its length, and each latency percentile
// over every sample of the window. A percentile over the whole run
// rather than one per second, so that a second with more or fewer
// garbage collections or lock convoys in it does not swing the result.
func (r *result) endToEnd(w *window) {
	r.metrics["txn_per_s"] = w.txnPerS()
	for _, c := range []struct {
		prefix string
		s      *samples
	}{{"update", &w.tally.upd.lat}, {"read", &w.tally.read.lat}} {
		d := c.s.dist()
		r.metrics[c.prefix+"_p50_us"], _ = d.quantileUs(0.50)
		var ok bool
		r.metrics[c.prefix+"_p99_us"], ok = d.quantileUs(0.99)
		if !ok {
			r.note("warning: %s_p99_us has fewer than 10 of %d samples beyond it", c.prefix, len(d))
		}
	}
}

// perLayer fills the per-layer metrics: ratios over the traced windows'
// counter deltas and span aggregates, and the untraced windows' scan
// latencies and log volume.
func (r *result) perLayer(untraced, traced *window) {
	m := r.metrics
	d := traced.delta
	txns := float64(traced.tally.committed())
	updates := float64(traced.tally.upd.committed + traced.tally.scan.committed)
	sp := &traced.spans

	m["engine_send_us"] = sp[spanSend].meanUs()
	m["engine_scan_ms"] = sp[spanScan].meanUs() / 1e3
	m["txn_commit_us"] = sp[spanUpdate].selfUs()
	m["view_self_us"] = sp[spanView].selfUs()
	m["versions_published_per_txn"] = ratio(d["versions"], txns)
	m["snapshot_txn_share"] = ratio(d["snapshots"], txns)
	m["lock_requests_per_txn"] = ratio(d["lock_requests"], txns)
	m["lock_blocks_per_1k_req"] = 1e3 * ratio(d["lock_blocks"], d["lock_requests"])
	m["lock_wait_us_per_txn"] = 1e6 * ratio(d["lock_wait_sum_s"], txns)
	m["deadlocks_per_1k_txn"] = 1e3 * ratio(d["deadlocks"], txns)
	if traced.tally.attempts > 0 {
		m["attempts_per_update"] = ratio(float64(traced.tally.attempts), updates)
	} else {
		// Served updates run their closures in the server: count the
		// engine's retries instead.
		m["attempts_per_update"] = ratio(updates+d["retries"], updates)
	}
	m["commits_per_wal_batch"] = ratio(d["wal_records"], d["wal_batches"])
	// Histogram means over the window, not the registry's quantiles:
	// those are cumulative since open and ±6% buckets wide.
	m["server_txn_mean_us"] = 1e6 * ratio(d["srv_txn_sum_s"], d["srv_txn_count"])
	m["server_view_mean_us"] = 1e6 * ratio(d["srv_view_sum_s"], d["srv_view_count"])
	m["client_start_us"] = sp[spanStart].meanUs()
	m["wire_queue_us"] = sp[spanRequest].meanUs() -
		1e6*ratio(d["srv_txn_sum_s"]+d["srv_view_sum_s"], d["srv_txn_count"]+d["srv_view_count"])
	m["allocs_per_txn"] = ratio(d["mallocs"], txns)
	m["alloc_bytes_per_txn"] = ratio(d["alloc_bytes"], txns)
	m["gc_cycles_per_s"] = d["gc_cycles"] / traced.elapsed.Seconds()
	m["trace_overhead_pct"] = 100 * (1 - traced.txnPerS()/untraced.txnPerS())

	scans := untraced.tally.scan.lat.dist()
	m["scan_p50_us"], _ = scans.quantileUs(0.50)
	var ok bool
	m["scan_p99_us"], ok = scans.quantileUs(0.99)
	if len(scans) > 0 && !ok {
		r.note("warning: scan_p99_us has fewer than 10 of %d samples beyond it", len(scans))
	}
	m["wal_bytes_per_commit"] = ratio(untraced.delta["wal_bytes"], untraced.delta["wal_records"])
}

// dumpSpans writes every tracer's retained spans to one JSON-lines file.
func dumpSpans(cfg *config, workload string, trs []*tracer) error {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	for i, tr := range trs {
		if err := tr.dump(path, i); err != nil {
			return err
		}
	}
	return nil
}
