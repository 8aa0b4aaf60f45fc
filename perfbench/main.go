// Command perfbench is the repository's benchmark. It drives the
// internal packages only through their public entry points — core.NewNode
// and the Node methods, comm.Client over the in-process Bus, store.Open
// and the Store reads, Node.SettleExecuted — on one of two workloads,
// checks every output, and prints its metrics.
//
//	bash perfbench/run.sh --workload population --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	population    closed loop on the Bus: 40 000 households, 4 BRPs, full
//	              intake → aggregate → plan → deliver → settle loop
//	restart       crash recovery: reopen every BRP over a seeded history
//	              killed with acked events undrained, then read it back
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the workload runs once untraced
// and once traced, the per-layer metrics come from the traced pass and
// the tracing overhead (traced minus untraced end-to-end metrics and
// workload figures) is printed. A run whose outputs fail the correctness
// gate prints "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/store"
)

// metric is one named, unit-carrying figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order. README.md gives each workload's definition, and
// why wall-clock throughput and latencies are printed as workload figures
// instead.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
	{"peak_rss_mb", "MB"},
	{"schedule_cost_ratio", "ratio"},
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. A layer a workload leaves idle reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"comm.client_self_us_p50", "us"},
	{"comm.deliver_us_p50", "us"},
	{"comm.failed", "count"},
	{"core.offer_handler_us_p50", "us"},
	{"core.meas_handler_us_p50", "us"},
	{"core.cycle_self_ms_p50", "ms"},
	{"core.deliver_ms_p50", "ms"},
	{"core.reconciled", "count"},
	{"core.notify_failures", "count"},
	{"core.newnode_ms", "ms"},
	{"ingest.records_per_group", "ratio"},
	{"ingest.events_per_batch", "ratio"},
	{"ingest.drain_ms_p50", "ms"},
	{"ingest.depth_max", "count"},
	{"ingest.drain_after_open_ms", "ms"},
	{"ingest.recovered", "count"},
	{"store.wal_records_per_group", "ratio"},
	{"store.wal_bytes_per_record", "B"},
	{"store.open_ms", "ms"},
	{"store.get_offer_us_p50", "us"},
	{"store.meas_query_us_p50", "us"},
	{"agg.ms_p50", "ms"},
	{"agg.offers_per_aggregate", "ratio"},
	{"agg.snapshot_reuse_ratio", "ratio"},
	{"sched.ms_p50", "ms"},
	{"sched.ms_p95", "ms"},
	{"sched.expired_ratio", "ratio"},
	{"settle.run_ms_p50", "ms"},
	{"settle.lines_per_batch", "ratio"},
	{"settle.ledger_bytes_per_entry", "B"},
	{"settle.verify_entries_per_s", "1/s"},
	{"forecast.observations", "count"},
	{"forecast.refits_done", "count"},
	{"forecast.overflow_ratio", "ratio"},
	{"forecast.mean_staleness", "count"},
	{"go.alloc_bytes_per_event", "B"},
	{"go.gc_pause_ms", "ms"},
	{"io.wchar_per_event", "B"},
}

// detCounts are the counts that must repeat exactly for a seed.
type detCounts struct {
	OffersAcked    uint64
	MicroSchedules int
	Expired        int
	CostRatio      float64
	WALRecords     uint64
	LedgerEntries  uint64
}

// layerSet holds per-layer values and, for ratios, their base.
type layerSet struct {
	v    map[string]float64
	base map[string]string
}

func (l layerSet) set(name string, v float64, base string) {
	l.v[name] = v
	if base != "" {
		l.base[name] = base
	}
}

func (l layerSet) setRatio(name string, num, den uint64, numName, denName string) {
	l.set(name, ratio(float64(num), float64(den)), fmt.Sprintf("%s %d / %s %d", numName, num, denName, den))
}

// setForecast records the forecast registries' counters.
func (l layerSet) setForecast(nodes []*core.Node) {
	var obs, done, enq, over uint64
	var stale float64
	var models int
	for _, n := range nodes {
		fs, ok := n.ForecastStats()
		if !ok {
			continue
		}
		obs += fs.Observations
		done += fs.RefitsDone
		enq += fs.RefitsEnqueued
		over += fs.QueueOverflows
		stale += fs.MeanStaleness * float64(fs.Models)
		models += fs.Models
	}
	l.set("forecast.observations", float64(obs), "")
	l.set("forecast.refits_done", float64(done), "")
	l.setRatio("forecast.overflow_ratio", over, enq, "queue overflows", "refits enqueued")
	l.set("forecast.mean_staleness", ratio(stale, float64(models)), fmt.Sprintf("over %d models", models))
}

// setProc records the process-wide figures of the timed phase.
func (l layerSet) setProc(d procDelta, events float64) {
	l.set("go.alloc_bytes_per_event", ratio(float64(d.alloc), events), fmt.Sprintf("bytes %d / events %.0f", d.alloc, events))
	l.set("go.gc_pause_ms", ms(d.gcPause), "")
	l.set("io.wchar_per_event", ratio(float64(d.wchar), events), fmt.Sprintf("wchar %d / events %.0f", d.wchar, events))
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed uint64
	violations        []string
	e2e               []metric
	named             []metric // the workload's own figures, for the human report
	layer             layerSet
	counts            detCounts
}

func newOutcome() *outcome {
	return &outcome{layer: layerSet{v: make(map[string]float64), base: make(map[string]string)}}
}

// violate records an output invariant broken n times; each counts as a
// failed operation.
func (o *outcome) violate(n int, format string, args ...any) {
	if n > 0 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
		o.failed += uint64(n)
	}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.violate(1, format, args...)
	}
}

func (o *outcome) setE2E(vals ...float64) {
	o.e2e = o.e2e[:0]
	for i, m := range e2eMetrics {
		o.e2e = append(o.e2e, metric{m.name, m.unit, vals[i]})
	}
}

func (o *outcome) correct() bool { return len(o.violations) == 0 && o.failed == 0 }

// loadGoroutines is the number of goroutines issuing work: two, or fewer
// on a smaller machine.
func loadGoroutines() int { return min(2, runtime.NumCPU()) }

// verifyNodes is the durability gate: after a final drain every acked
// offer and measurement slot must be in its BRP's store and every
// ledger chain must verify.
func verifyNodes(ctx context.Context, o *outcome, nodes []*core.Node, offers [][]flexoffer.ID, meas []map[string][]flexoffer.Time) {
	var verify time.Duration
	var entries uint64
	for i, n := range nodes {
		if err := n.DrainIngest(ctx); err != nil {
			o.violate(1, "%s: final drain: %v", n.Name(), err)
			continue
		}
		st := n.Store()
		missing := 0
		for _, id := range offers[i] {
			if _, ok := st.GetOffer(id); !ok {
				missing++
			}
		}
		o.violate(missing, "%s: %d acked offers missing", n.Name(), missing)
		missing = 0
		for actor, slots := range meas[i] {
			have := make(map[flexoffer.Time]bool)
			for _, m := range st.Measurements(store.MeasurementFilter{Actor: actor, EnergyType: "demand"}) {
				have[m.Slot] = true
			}
			for _, s := range slots {
				if !have[s] {
					missing++
				}
			}
		}
		o.violate(missing, "%s: %d acked measurements missing", n.Name(), missing)
		t0 := time.Now()
		v, err := n.Ledger().Verify()
		verify += time.Since(t0)
		entries += v.Entries
		o.check(err == nil && v.OK, "%s: ledger chain does not verify: %v %s", n.Name(), err, v.Reason)
	}
	o.layer.set("settle.verify_entries_per_s", ratio(float64(entries), verify.Seconds()), fmt.Sprintf("entries %d / %.3fs", entries, verify.Seconds()))
}

func sumWAL(nodes []*core.Node) store.LogStats {
	var s store.LogStats
	for _, n := range nodes {
		w := n.Store().WALStats()
		s.Records += w.Records
		s.Groups += w.Groups
		s.Syncs += w.Syncs
	}
	return s
}

func sumIngest(nodes []*core.Node) ingest.Stats {
	var s ingest.Stats
	for _, n := range nodes {
		is, ok := n.IngestStats()
		if !ok {
			continue
		}
		s.Enqueued += is.Enqueued
		s.Consumed += is.Consumed
		s.Batches += is.Batches
		s.Recovered += is.Recovered
		s.Journal.Records += is.Journal.Records
		s.Journal.Groups += is.Journal.Groups
	}
	return s
}

// depthSampler polls the BRPs' ingest backlog every 10 ms through the
// run.
type depthSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	deepest int // largest summed depth seen
}

func startDepthSampler(nodes []*core.Node) *depthSampler {
	s := &depthSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			d := 0
			for _, n := range nodes {
				if is, ok := n.IngestStats(); ok {
					d += is.Depth + is.DiskBacklog
				}
			}
			s.deepest = max(s.deepest, d)
		}
	}()
	return s
}

// stop ends sampling and returns the deepest backlog seen.
func (s *depthSampler) stop() int {
	close(s.stopc)
	<-s.done
	return s.deepest
}

type runArgs struct {
	workload string
	seed     int64
	dir      string
	trace    *tracer
}

func runWorkload(ctx context.Context, a runArgs) (*outcome, error) {
	switch a.workload {
	case "population":
		cfg := defaultPopConfig(a.seed, a.dir)
		cfg.Trace = a.trace
		return runPopulation(ctx, cfg)
	case "restart":
		cfg := defaultRestartConfig(a.seed, a.dir)
		cfg.Trace = a.trace
		return runRestart(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want population or restart)", a.workload)
}

// spanLayers derives the span-based per-layer metrics.
func spanLayers(l layerSet, sum map[string]*spanStats) {
	p50 := func(name string, self bool) float64 {
		st := sum[name]
		if st == nil {
			return 0
		}
		if self {
			return median(st.self)
		}
		return median(st.dur)
	}
	l.set("comm.client_self_us_p50", callSelfP50(sum), "")
	l.set("comm.deliver_us_p50", p50("comm.deliver", false), "")
	l.set("core.offer_handler_us_p50", p50("core.handle."+string(comm.MsgFlexOfferSubmit), false), "")
	l.set("core.meas_handler_us_p50", p50("core.handle."+string(comm.MsgMeasurementBatch), false), "")
	l.set("core.cycle_self_ms_p50", p50("core.cycle", true)/1e3, "")
	l.set("core.newnode_ms", p50("core.newnode", false)/1e3, "")
	l.set("ingest.drain_after_open_ms", p50("ingest.drain_after_open", false)/1e3, "")
	l.set("store.open_ms", p50("store.open", false)/1e3, "")
	l.set("store.get_offer_us_p50", p50("store.get_offer", false), "")
	l.set("store.meas_query_us_p50", p50("store.meas_query", false), "")
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %16.4f %s\n", m.name, m.value, m.unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "population | restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "accepted for the benchmark contract; both workloads do a fixed amount of work")
	traceFlag := flag.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
	work := flag.String("work", ".bench_build/work", "scratch directory for node data")
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	code := run(os.Stdout, *workload, *seed, *seconds, *traceFlag == 1, dir)
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

func run(w io.Writer, workload string, seed int64, seconds float64, traced bool, dir string) int {
	ctx := context.Background()
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g GOMAXPROCS=%d load_goroutines=%d flush=store.SyncFlush chaos=off\n",
		workload, seed, seconds, runtime.GOMAXPROCS(0), loadGoroutines())
	plain, err := runWorkload(ctx, runArgs{workload: workload, seed: seed, dir: filepath.Join(dir, "plain")})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(w, "untraced", plain)
	res := jsonResult{Correct: plain.correct(), Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range plain.e2e {
		res.Metrics[m.name] = jsonMetric{finite(m.value), m.unit}
	}
	if traced {
		tr := newTracer()
		tres, err := runWorkload(ctx, runArgs{workload: workload, seed: seed, dir: filepath.Join(dir, "traced"), trace: tr})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		report(w, "traced", tres)
		sum := tr.summarize()
		spanLayers(tres.layer, sum)
		fmt.Fprintln(w, "spans (self time = span time minus the time its children cover):")
		printSummary(w, sum)
		dumpPath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.tsv", workload, seed))
		if err := tr.dump(dumpPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
		} else {
			fmt.Fprintf(w, "span dump: %s\n", dumpPath)
		}
		printLayers(w, tres.layer)
		fmt.Fprintln(w, "tracing overhead (traced - untraced):")
		printOverhead(w, plain.e2e, tres.e2e)
		printOverhead(w, plain.named, tres.named)
		res = jsonResult{Correct: plain.correct() && tres.correct(), Attempted: plain.attempted + tres.attempted,
			Failed: plain.failed + tres.failed, Metrics: map[string]jsonMetric{}}
		for _, m := range layerMetrics {
			res.Metrics[m.name] = jsonMetric{finite(tres.layer.v[m.name]), m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finite maps the +Inf of a latency percentile that failed requests
// reached to the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// printOverhead prints traced minus untraced for each metric of one
// list; both passes list the same metrics in the same order.
func printOverhead(w io.Writer, plain, traced []metric) {
	for i, m := range plain {
		t := traced[i].value
		fmt.Fprintf(w, "  %-28s %14.4f -> %14.4f  %+14.4f %s (%+.1f%%)\n", m.name, m.value, t, t-m.value, m.unit, 100*ratio(t-m.value, m.value))
	}
}

func report(w io.Writer, pass string, o *outcome) {
	printMetrics(w, pass+" end-to-end:", o.e2e)
	printMetrics(w, pass+" workload figures:", o.named)
	fmt.Fprintf(w, "%s operations: %d attempted, %d failed\n", pass, o.attempted, o.failed)
	for _, v := range o.violations {
		fmt.Fprintf(w, "%s VIOLATION: %s\n", pass, v)
	}
}

func printLayers(w io.Writer, l layerSet) {
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-32s %16.4f %-6s %s\n", m.name, l.v[m.name], m.unit, l.base[m.name])
	}
}
