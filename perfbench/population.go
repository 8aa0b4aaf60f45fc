package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/devices"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// popConfig sizes the population workload: a closed loop of household
// workers on the in-process Bus against durable BRP nodes that drain,
// aggregate, plan, commit, deliver and settle every cycle.
type popConfig struct {
	Households    int
	BRPs          int
	Workers       int // closed-loop worker goroutines
	SlotsPerCycle int
	StartSlot     int // event-time slot of the first cycle (16:30, before the evening surge)
	MeasureEvery  int // every Nth household sends an acked measurement batch per cycle
	Iters         int // search iteration bound: planning work is fixed per seed
	Days          int // whole event-time days measured: the timed work is fixed per seed
	SetupRepeats  int
	Seed          int64
	Dir           string
	Trace         *tracer
}

// minNodeCycles is the fewest node-cycles a population run may measure,
// so that the cycle p95 has at least ten samples beyond it.
const minNodeCycles = 200

// defaultPopConfig is the measured configuration: 2 days of 32 cycles on
// 4 BRPs are 256 node-cycles, 22–28 s on 2 cores whatever --seconds
// says, so a faster node finishes the same work sooner rather than doing
// more of it.
func defaultPopConfig(seed int64, dir string) popConfig {
	return popConfig{
		Households: 40000, BRPs: 4, Workers: loadGoroutines(),
		SlotsPerCycle: 3, StartSlot: 66, MeasureEvery: 8, Iters: 200,
		Days: 2, SetupRepeats: 3,
		Seed: seed, Dir: dir,
	}
}

func (c popConfig) cyclesPerDay() int { return flexoffer.SlotsPerDay / c.SlotsPerCycle }

func (c popConfig) nodeCycles() int { return c.Days * c.cyclesPerDay() * c.BRPs }

// popWorker drives a contiguous block of households on one goroutine and
// is also their delivery endpoint for micro schedules.
type popWorker struct {
	name    string
	client  *comm.Client
	members []int

	delivered atomic.Uint64
	mu        sync.Mutex
	received  map[string][]*flexoffer.Schedule // BRP name -> schedules since the last settlement

	// Owned by the worker goroutine.
	nextSeq     map[int]uint64 // household -> offers issued so far
	offers      uint64
	offersAcked uint64
	batches     uint64
	batchesAck  uint64
	measAcked   uint64
	offerLat    []float64 // ms, call to decision; +Inf when the call failed
	measLat     []float64 // ms, call to ack; +Inf when the call failed
	ackedOffers [][]flexoffer.ID
	ackedMeas   []map[string][]flexoffer.Time
}

type population struct {
	cfg      popConfig
	bus      *comm.Bus
	homes    []*devices.Household
	brpOf    []int
	workers  []*popWorker
	brps     []*core.Node
	dir      string
	baseline []float64
}

func brpName(i int) string { return fmt.Sprintf("brp-%d", i) }

// brpConfig is the BRP node configuration every workload uses: durable
// store, ingest journal and ledger with their default flush policy
// (store.SyncFlush), forecasting on, no chaos.
func brpConfig(name, dir string, st *store.Store, t comm.Transport, seed int64, iters int, tr *tracer) core.Config {
	cfg := core.Config{
		Name: name, Role: store.RoleBRP, Transport: t, Store: st,
		AggParams:   agg.ParamsP3,
		SchedOpts:   sched.Options{TimeBudget: time.Minute, MaxIterations: iters, Seed: seed},
		Ingest:      &ingest.Config{Path: filepath.Join(dir, "ingest.log")},
		Settlement:  &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
		Forecasting: &forecast.RegistryConfig{},
	}
	if tr != nil {
		cfg.Middleware = []comm.Middleware{tr.middleware()}
		if t != nil {
			cfg.Transport = deliverTransport{Transport: t, t: tr}
		}
	}
	return cfg
}

// openBRP opens one BRP over dir.
func openBRP(name, dir string, t comm.Transport, seed int64, iters int, tr *tracer) (*core.Node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open %s store: %w", name, err)
	}
	n, err := core.NewNode(brpConfig(name, dir, st, t, seed, iters, tr))
	if err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return n, nil
}

func closeNodes(nodes []*core.Node) {
	for _, n := range nodes {
		if n != nil {
			_ = n.Close()
			_ = n.Store().Close()
		}
	}
}

// setupPopulation builds the fleet and opens the BRPs: everything before
// the first timed operation.
func setupPopulation(cfg popConfig, dir string) (*population, error) {
	p := &population{cfg: cfg, bus: comm.NewBus(), dir: dir}
	p.homes = devices.NewFleet(cfg.Households, cfg.Seed).Households
	p.brpOf = make([]int, len(p.homes))
	for i := range p.homes {
		p.brpOf[i] = i % cfg.BRPs
	}
	p.workers = make([]*popWorker, cfg.Workers)
	for i := range p.workers {
		w := &popWorker{
			name:        fmt.Sprintf("worker-%d", i),
			received:    make(map[string][]*flexoffer.Schedule),
			nextSeq:     make(map[int]uint64),
			ackedOffers: make([][]flexoffer.ID, cfg.BRPs),
			ackedMeas:   make([]map[string][]flexoffer.Time, cfg.BRPs),
		}
		for b := range w.ackedMeas {
			w.ackedMeas[b] = make(map[string][]flexoffer.Time)
		}
		var t comm.Transport = p.bus
		if cfg.Trace != nil {
			t = callTransport{Transport: p.bus, t: cfg.Trace}
		}
		w.client = comm.NewClient(w.name, t)
		p.bus.Register(w.name, w.endpoint())
		p.workers[i] = w
	}
	// Contiguous blocks per worker: with round-robin BRP assignment
	// every worker feeds every balance group.
	for i := range p.homes {
		w := p.workers[i*cfg.Workers/len(p.homes)]
		w.members = append(w.members, i)
	}
	p.brps = make([]*core.Node, cfg.BRPs)
	for i := range p.brps {
		n, err := openBRP(brpName(i), filepath.Join(dir, brpName(i)), p.bus, cfg.Seed+int64(i), cfg.Iters, cfg.Trace)
		if err != nil {
			p.close()
			return nil, err
		}
		p.brps[i] = n
		p.bus.Register(brpName(i), n.Handler())
	}
	p.baseline = make([]float64, cfg.StartSlot+(cfg.Days+2)*flexoffer.SlotsPerDay)
	for t := range p.baseline {
		hour := (t / flexoffer.SlotsPerHour) % 24
		switch {
		case hour < 6:
			p.baseline[t] = -60
		case hour >= 11 && hour < 15:
			p.baseline[t] = -40
		default:
			p.baseline[t] = 15
		}
	}
	return p, nil
}

func (p *population) close() {
	closeNodes(p.brps)
	_ = os.RemoveAll(p.dir)
}

// endpoint receives the micro schedules of the worker's households.
func (w *popWorker) endpoint() comm.Handler {
	mux := comm.NewMux()
	mux.Handle(comm.MsgScheduleNotify, func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		var body comm.ScheduleNotify
		if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.received[env.From] = append(w.received[env.From], body.Schedules...)
		w.mu.Unlock()
		w.delivered.Add(uint64(len(body.Schedules)))
		return nil, nil
	})
	return mux.Serve
}

func newPopCycleStats(brps int) *popCycleStats {
	return &popCycleStats{schedCost: make([]float64, brps), baseCost: make([]float64, brps)}
}

// costRatio is Σ ScheduleCost ÷ Σ BaselineCost over the node-cycles
// that planned anything.
func (cs *popCycleStats) costRatio() float64 {
	var s, b float64
	for i := range cs.schedCost {
		s += cs.schedCost[i]
		b += cs.baseCost[i]
	}
	return ratio(s, b)
}

// popCycleStats accumulates the BRP side of the run.
type popCycleStats struct {
	mu             sync.Mutex
	cycleMs        []float64
	drainMs        []float64
	aggMs          []float64
	schedMs        []float64
	deliverMs      []float64
	settleMs       []float64
	nodeCycles     int
	cycleErrors    int
	micro          int
	expired        int
	offersConsider int
	reconciled     int
	notifyFailures int
	aggregates     int
	aggOffers      int
	snapReused     int
	schedCost      []float64 // per BRP, summed in BRP order so the ratio repeats bit for bit
	baseCost       []float64
	settleRuns     int
	settleErrors   int
	settleLines    int
	settleBatches  int
	settleTime     time.Duration
	expectedDeliv  uint64
}

// cycle runs one event-time cycle: the workers' intake, then every
// BRP's scheduling cycle, then settlement of what was delivered.
func (p *population) cycle(ctx context.Context, c int, cs *popCycleStats) error {
	spc := p.cfg.SlotsPerCycle
	base := flexoffer.Time(p.cfg.StartSlot + c*spc)
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *popWorker) {
			defer wg.Done()
			w.runCycle(ctx, p, c, base, base+flexoffer.Time(spc))
		}(w)
	}
	wg.Wait()

	// Planning happens at the start of the window just ticked: device
	// offers must be assigned one slot after they are issued. Each BRP
	// is its own EDMS node in the system modelled, so the BRPs plan and
	// settle one at a time: a cycle's time is its own work and that of
	// its node's background goroutines, not a share of the cores another
	// BRP's cycle is using.
	now := base
	for i, n := range p.brps {
		p.runNodeCycle(ctx, i, n, c, now, cs)
	}
	if err := p.awaitDeliveries(cs.expectedDeliv); err != nil {
		return err
	}
	for _, n := range p.brps {
		p.settle(n, c, cs)
	}
	return nil
}

func (p *population) runNodeCycle(ctx context.Context, i int, n *core.Node, c int, now flexoffer.Time, cs *popCycleStats) {
	tr := p.cfg.Trace
	idx := tr.reserve()
	if tr != nil {
		ctx = withParent(ctx, idx)
	}
	t0 := time.Now()
	rep, err := n.RunSchedulingCycle(ctx, now, core.ShiftedForecast{Series: p.baseline, Start: int(now)}, nil, nil)
	t1 := time.Now()
	if tr != nil {
		id := fmt.Sprintf("%s/cycle-%d", n.Name(), c)
		tr.finish(idx, "core.cycle", id, t0, t1)
		if rep != nil {
			// CycleReport phase durations as children of the cycle span,
			// laid end to end in the order the cycle runs them.
			at := t0
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"core.cycle.ingest_drain", rep.IngestDrainTime}, {"core.cycle.aggregate", rep.AggregationTime}, {"core.cycle.schedule", rep.SchedulingTime}} {
				tr.record(ph.name, id, idx, at, at.Add(ph.d))
				at = at.Add(ph.d)
			}
			tr.record("core.cycle.deliver", id, idx, t1.Add(-rep.DeliveryTime), t1)
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nodeCycles++
	if err != nil {
		cs.cycleErrors++
		return
	}
	cs.cycleMs = append(cs.cycleMs, ms(t1.Sub(t0)))
	cs.drainMs = append(cs.drainMs, ms(rep.IngestDrainTime))
	cs.aggMs = append(cs.aggMs, ms(rep.AggregationTime))
	cs.deliverMs = append(cs.deliverMs, ms(rep.DeliveryTime))
	cs.micro += rep.MicroSchedules
	cs.expired += rep.Expired
	cs.offersConsider += rep.Offers + rep.Expired
	cs.reconciled += rep.Reconciled
	cs.notifyFailures += rep.NotifyFailures
	cs.expectedDeliv += uint64(rep.MicroSchedules - rep.Reconciled)
	if rep.Aggregates > 0 {
		cs.schedMs = append(cs.schedMs, ms(rep.SchedulingTime))
		cs.aggregates += rep.Aggregates
		cs.aggOffers += rep.Offers
		cs.snapReused += rep.SnapshotsReused
		cs.schedCost[i] += rep.ScheduleCost
		cs.baseCost[i] += rep.BaselineCost
	}
}

// awaitDeliveries waits until the fire-and-forget schedule notifications
// of the cycles have reached the workers' endpoints.
func (p *population) awaitDeliveries(want uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got uint64
		for _, w := range p.workers {
			got += w.delivered.Load()
		}
		if got == want {
			return nil
		}
		if got > want || time.Now().After(deadline) {
			return fmt.Errorf("population: %d micro schedules delivered, want %d", got, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// settle meters the delivered schedules of one BRP with a seeded
// deviation per offer and settles them.
func (p *population) settle(n *core.Node, c int, cs *popCycleStats) {
	metered := make(map[flexoffer.ID][]float64)
	for _, w := range p.workers {
		w.mu.Lock()
		got := w.received[n.Name()]
		delete(w.received, n.Name())
		w.mu.Unlock()
		for _, s := range got {
			dev := deviation(p.cfg.Seed, uint64(s.OfferID))
			m := make([]float64, len(s.Energy))
			for k, e := range s.Energy {
				m[k] = e * (1 + dev)
			}
			metered[s.OfferID] = m
		}
	}
	t0 := time.Now()
	rep, err := n.SettleExecuted(metered, settle.Config{})
	t1 := time.Now()
	p.cfg.Trace.record("settle.run", fmt.Sprintf("%s/cycle-%d", n.Name(), c), -1, t0, t1)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.settleRuns++
	cs.settleTime += t1.Sub(t0)
	if err != nil {
		cs.settleErrors++
		return
	}
	cs.settleMs = append(cs.settleMs, ms(t1.Sub(t0)))
	cs.settleLines += len(rep.Lines)
	cs.settleBatches += rep.Batches
}

// deviation is the seeded metering deviation of one offer in
// [-12%, +12%]: executions within the 5% tolerance settle clean, the
// rest pay deviation penalties.
func deviation(seed int64, id uint64) float64 {
	h := fnv.New64a()
	var b [16]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(seed) >> (8 * k))
		b[8+k] = byte(id >> (8 * k))
	}
	h.Write(b[:])
	return (float64(h.Sum64()%2401)/100 - 12) / 100
}

// runCycle ticks the worker's households through [base, next),
// submitting every offer as it is issued, then reports the sampled
// households' readings as acked measurement batches.
func (w *popWorker) runCycle(ctx context.Context, p *population, c int, base, next flexoffer.Time) {
	type sample struct {
		home    int
		reports []comm.MeasurementReport
	}
	var samples []sample
	sampleAt := make(map[int]int)
	for _, h := range w.members {
		if (h+c)%p.cfg.MeasureEvery == 0 {
			sampleAt[h] = len(samples)
			samples = append(samples, sample{home: h})
		}
	}
	tr := p.cfg.Trace
	for slot := base; slot < next; slot++ {
		for _, h := range w.members {
			offers, kwh := p.homes[h].Tick(slot)
			for _, off := range offers {
				// Offer IDs from the fleet's shared counter depend on how
				// the workers interleave; renumber per household so the
				// same seed gives the same inputs.
				w.nextSeq[h]++
				off.ID = flexoffer.ID(uint64(h+1)<<24 | w.nextSeq[h])
				w.submit(ctx, tr, off, p.brpOf[h])
			}
			if si, ok := sampleAt[h]; ok {
				samples[si].reports = append(samples[si].reports, comm.MeasurementReport{
					Actor: p.homes[h].Name, EnergyType: "demand", Slot: slot, KWh: kwh,
				})
			}
		}
	}
	for _, s := range samples {
		b := p.brpOf[s.home]
		w.batches++
		t0 := time.Now()
		err := tr.call(ctx, "comm.call."+string(comm.MsgMeasurementBatch), func(ctx context.Context) error {
			return w.client.ReportMeasurementsAcked(ctx, brpName(b), s.reports)
		})
		if err != nil {
			w.measLat = append(w.measLat, math.Inf(1))
			continue
		}
		w.measLat = append(w.measLat, ms(time.Since(t0)))
		w.batchesAck++
		w.measAcked += uint64(len(s.reports))
		byActor := w.ackedMeas[b]
		for _, r := range s.reports {
			byActor[r.Actor] = append(byActor[r.Actor], r.Slot)
		}
	}
}

func (w *popWorker) submit(ctx context.Context, tr *tracer, off *flexoffer.FlexOffer, b int) {
	w.offers++
	t0 := time.Now()
	err := tr.call(ctx, "comm.call."+string(comm.MsgFlexOfferSubmit), func(ctx context.Context) error {
		_, err := w.client.SubmitOffer(ctx, brpName(b), off)
		return err
	})
	if err != nil {
		w.offerLat = append(w.offerLat, math.Inf(1))
		return
	}
	w.offerLat = append(w.offerLat, ms(time.Since(t0)))
	w.offersAcked++
	w.ackedOffers[b] = append(w.ackedOffers[b], off.ID)
}

// runPopulation sets the workload up, measures cfg.Days whole event-time
// days, then checks every output.
func runPopulation(ctx context.Context, cfg popConfig) (*outcome, error) {
	n := 0
	p, setupS, err := timeSetup(cfg.SetupRepeats, func() (*population, error) {
		n++
		return setupPopulation(cfg, filepath.Join(cfg.Dir, fmt.Sprintf("setup-%d", n)))
	}, (*population).close)
	if err != nil {
		return nil, err
	}
	defer p.close()

	wal0, ing0 := sumWAL(p.brps), sumIngest(p.brps)
	depth, rss := startDepthSampler(p.brps), startRSSSampler()
	cs := newPopCycleStats(cfg.BRPs)
	start := sampleProc()
	var cal calibrator
	for c := 0; c < cfg.Days*cfg.cyclesPerDay(); c++ {
		if err := p.cycle(ctx, c, cs); err != nil {
			depth.stop()
			rss.stop()
			return nil, err
		}
		cal.sample()
	}
	end := sampleProc()
	end.cpu -= cal.spent
	depthMax, peakRSS := depth.stop(), rss.stop()
	d := end.since(start)
	wal1, ing1 := sumWAL(p.brps), sumIngest(p.brps)

	o := newOutcome()
	var offers, offersAcked, batches, batchesAck, measAcked, delivered uint64
	var offerLat, measLat []float64
	for _, w := range p.workers {
		offers += w.offers
		offersAcked += w.offersAcked
		batches += w.batches
		batchesAck += w.batchesAck
		measAcked += w.measAcked
		delivered += w.delivered.Load()
		offerLat = append(offerLat, w.offerLat...)
		measLat = append(measLat, w.measLat...)
	}
	o.attempted = offers + batches + uint64(cs.nodeCycles+cs.settleRuns)
	o.failed = offers - offersAcked + batches - batchesAck + uint64(cs.cycleErrors+cs.settleErrors)
	events := float64(offersAcked + measAcked)

	// Correctness gate.
	o.check(cs.notifyFailures == 0, "%d schedule notifications failed", cs.notifyFailures)
	o.check(delivered == cs.expectedDeliv, "%d schedules delivered, want micro %d - reconciled %d", delivered, cs.micro, cs.reconciled)
	o.check(uint64(cs.settleLines) == delivered, "%d settlement lines for %d delivered schedules", cs.settleLines, delivered)
	o.check(len(cs.cycleMs) == cfg.nodeCycles(), "%d node-cycles measured, want %d", len(cs.cycleMs), cfg.nodeCycles())
	acked := make([][]flexoffer.ID, cfg.BRPs)
	meas := make([]map[string][]flexoffer.Time, cfg.BRPs)
	for b := range acked {
		meas[b] = make(map[string][]flexoffer.Time)
		for _, w := range p.workers {
			acked[b] = append(acked[b], w.ackedOffers[b]...)
			for a, s := range w.ackedMeas[b] {
				meas[b][a] = append(meas[b][a], s...)
			}
		}
	}
	verifyNodes(ctx, o, p.brps, acked, meas)

	costRatio := cs.costRatio()
	cpuPerEvent := ratio(float64(d.cpu.Microseconds()), events)
	o.setE2E(setupS, cal.atRefSpeed(cpuPerEvent), peakRSS, costRatio)
	wall := d.wall.Seconds()
	o.named = []metric{
		{"cpu_us_per_event_measured", "us", cpuPerEvent},
		{"ref_kernel_us", "us", median(cal.samples)},
		{"offers_per_s", "1/s", float64(offersAcked) / wall},
		{"schedules_per_s", "1/s", float64(delivered) / wall},
		{"cycle_p50_ms", "ms", median(cs.cycleMs)},
		{"cycle_p95_ms", "ms", percentile(cs.cycleMs, 0.95)},
		{"schedule_cost_ratio", "ratio", costRatio},
		{"settle_lines_per_s", "1/s", ratio(float64(cs.settleLines), cs.settleTime.Seconds())},
		{"offer_ack_p50_ms", "ms", median(offerLat)},
		{"offer_ack_p99_ms", "ms", percentile(offerLat, 0.99)},
		{"meas_ack_p50_ms", "ms", median(measLat)},
		{"meas_ack_p99_ms", "ms", percentile(measLat, 0.99)},
		{"offer_share", "ratio", ratio(float64(offersAcked), float64(offersAcked+batchesAck))},
		{"node_cycles", "count", float64(len(cs.cycleMs))},
		{"days", "count", float64(cfg.Days)},
		{"timed_s", "s", wall},
	}
	o.counts = detCounts{
		OffersAcked: offersAcked, MicroSchedules: cs.micro, Expired: cs.expired,
		CostRatio: costRatio, WALRecords: wal1.Records, LedgerEntries: p.ledgerEntries(),
	}

	// Per-layer counts from the public stats, over the timed phase.
	L := o.layer
	L.set("comm.failed", float64(offers-offersAcked+batches-batchesAck), "")
	L.set("core.deliver_ms_p50", median(cs.deliverMs), "")
	L.set("core.reconciled", float64(cs.reconciled), "")
	L.set("core.notify_failures", float64(cs.notifyFailures), "")
	L.setRatio("ingest.records_per_group", ing1.Journal.Records-ing0.Journal.Records, ing1.Journal.Groups-ing0.Journal.Groups, "journal records", "groups")
	L.setRatio("ingest.events_per_batch", ing1.Consumed-ing0.Consumed, ing1.Batches-ing0.Batches, "events consumed", "batches")
	L.set("ingest.drain_ms_p50", median(cs.drainMs), "")
	L.set("ingest.depth_max", float64(depthMax), "")
	L.setRatio("store.wal_records_per_group", wal1.Records-wal0.Records, wal1.Groups-wal0.Groups, "WAL records", "groups")
	var walBytes int64
	for i := range p.brps {
		walBytes += fileSize(filepath.Join(p.dir, brpName(i), "wal.log"))
	}
	L.setRatio("store.wal_bytes_per_record", uint64(walBytes), wal1.Records, "WAL bytes", "records")
	L.set("agg.ms_p50", median(cs.aggMs), "")
	L.setRatio("agg.offers_per_aggregate", uint64(cs.aggOffers), uint64(cs.aggregates), "offers planned", "aggregates")
	L.setRatio("agg.snapshot_reuse_ratio", uint64(cs.snapReused), uint64(cs.aggregates), "snapshots reused", "aggregates")
	L.set("sched.ms_p50", median(cs.schedMs), "")
	L.set("sched.ms_p95", percentile(cs.schedMs, 0.95), "")
	L.setRatio("sched.expired_ratio", uint64(cs.expired), uint64(cs.offersConsider), "expired", "offers considered")
	L.set("settle.run_ms_p50", median(cs.settleMs), "")
	L.setRatio("settle.lines_per_batch", uint64(cs.settleLines), uint64(cs.settleBatches), "lines", "batches")
	var ledgerBytes int64
	for i := range p.brps {
		ledgerBytes += fileSize(filepath.Join(p.dir, brpName(i), "ledger.log"))
	}
	L.setRatio("settle.ledger_bytes_per_entry", uint64(ledgerBytes), p.ledgerEntries(), "ledger bytes", "entries")
	L.setForecast(p.brps)
	L.setProc(d, events)
	return o, nil
}

func (p *population) ledgerEntries() uint64 {
	var n uint64
	for _, b := range p.brps {
		if ls, ok := b.LedgerStats(); ok {
			n += ls.Entries
		}
	}
	return n
}
