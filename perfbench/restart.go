package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// restartConfig sizes the restart workload: a seeded history written
// through the population's public write paths, crashed with acked events
// undrained, then reopened and read back again and again.
type restartConfig struct {
	BRPs          int
	Households    int
	HistoryCycles int // cycles of intake, planning and settlement before the crash
	Iters         int
	Rounds        int // timed reopen rounds, so the per-BRP tail has >= 10 samples beyond p90
	SetupRepeats  int
	Seed          int64
	Dir           string
	Trace         *tracer
}

// defaultRestartConfig is the measured configuration: 50 rounds of 4
// reopens, about 14 s on 2 cores whatever --seconds says, so a faster
// recovery finishes the same work sooner rather than doing more of it.
func defaultRestartConfig(seed int64, dir string) restartConfig {
	return restartConfig{
		BRPs: 4, Households: 2000, HistoryCycles: 16, Iters: 200,
		Rounds: 50, SetupRepeats: 3, Seed: seed, Dir: dir,
	}
}

// history is a killed set of BRP directories and what was acked into
// them.
type history struct {
	dir           string
	offers        [][]flexoffer.ID
	meas          []map[string][]flexoffer.Time
	records       uint64 // acked offers + measurement facts
	ledgerEntries uint64
	walBytes      int64
	walRecords    uint64
	ledgerBytes   int64
}

// writeHistory runs HistoryCycles population cycles, then one more
// intake phase whose acked events stay in the ingest journals, and
// kills every BRP.
func writeHistory(cfg restartConfig, dir string) (*history, error) {
	pc := defaultPopConfig(cfg.Seed, dir)
	pc.Households, pc.BRPs, pc.Iters = cfg.Households, cfg.BRPs, cfg.Iters
	pc.Days = cfg.HistoryCycles/pc.cyclesPerDay() + 1
	p, err := setupPopulation(pc, dir)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cs := newPopCycleStats(cfg.BRPs)
	for c := 0; c < cfg.HistoryCycles; c++ {
		if err := p.cycle(ctx, c, cs); err != nil {
			p.close()
			return nil, err
		}
	}
	base := flexoffer.Time(pc.StartSlot + cfg.HistoryCycles*pc.SlotsPerCycle)
	for _, w := range p.workers {
		w.runCycle(ctx, p, cfg.HistoryCycles, base, base+flexoffer.Time(pc.SlotsPerCycle))
	}
	h := &history{dir: dir, offers: make([][]flexoffer.ID, cfg.BRPs), meas: make([]map[string][]flexoffer.Time, cfg.BRPs)}
	for b := range h.offers {
		h.meas[b] = make(map[string][]flexoffer.Time)
		for _, w := range p.workers {
			h.offers[b] = append(h.offers[b], w.ackedOffers[b]...)
			h.records += uint64(len(w.ackedOffers[b]))
			for a, s := range w.ackedMeas[b] {
				h.meas[b][a] = append(h.meas[b][a], s...)
				h.records += uint64(len(s))
			}
		}
	}
	var failed uint64
	for _, w := range p.workers {
		failed += w.offers - w.offersAcked + w.batches - w.batchesAck
	}
	if failed > 0 || cs.cycleErrors > 0 || cs.settleErrors > 0 || cs.settleLines == 0 {
		p.close()
		return nil, fmt.Errorf("history: %d failed requests, %d cycle and %d settle errors, %d lines settled",
			failed, cs.cycleErrors, cs.settleErrors, cs.settleLines)
	}
	h.walRecords = sumWAL(p.brps).Records
	h.ledgerEntries = p.ledgerEntries()
	for _, n := range p.brps {
		n.Kill()
	}
	for i := range p.brps {
		h.walBytes += fileSize(filepath.Join(dir, brpName(i), "wal.log"))
		h.ledgerBytes += fileSize(filepath.Join(dir, brpName(i), "ledger.log"))
	}
	return h, nil
}

// copyTree copies the regular files of src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		// Written back before the round is timed, so the kernel's
		// writeback does not compete with recovery.
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// restartRound is one timed reopen of every BRP and read-back.
type restartRound struct {
	recoveryMs []float64 // per BRP: store.Open until DrainIngest returns; +Inf when it failed
	recovery   time.Duration
	readback   time.Duration
	verify     time.Duration
	readRecs   uint64
	entries    uint64
	recovered  uint64
	cpu        procDelta
}

func runRestart(ctx context.Context, cfg restartConfig) (*outcome, error) {
	n := 0
	h, setupS, err := timeSetup(cfg.SetupRepeats, func() (*history, error) {
		n++
		return writeHistory(cfg, filepath.Join(cfg.Dir, fmt.Sprintf("setup-%d", n)))
	}, func(h *history) { _ = os.RemoveAll(h.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.dir)

	o := newOutcome()
	var rounds []restartRound
	var cal calibrator
	rss := startRSSSampler()
	for i := 0; i < cfg.Rounds; i++ {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("round-%d", i))
		if err := copyTree(h.dir, dir); err != nil {
			rss.stop()
			return nil, fmt.Errorf("restart: copy history: %w", err)
		}
		// A restarted process starts with an empty heap: collect the
		// previous round's nodes before timing this one.
		runtime.GC()
		cal.sample()
		r, nodes := reopenAndRead(ctx, cfg, h, dir, i, o)
		closeNodes(nodes)
		_ = os.RemoveAll(dir)
		rounds = append(rounds, r)
		if !o.correct() {
			break
		}
	}
	peakRSS := rss.stop()

	var perBRP []float64
	var recs, entries uint64
	var verifyT time.Duration
	var cpu procDelta
	var recoveryMs, readRates []float64
	for _, r := range rounds {
		readRates = append(readRates, ratio(float64(r.readRecs), r.readback.Seconds()))
		perBRP = append(perBRP, r.recoveryMs...)
		recoveryMs = append(recoveryMs, ms(r.recovery))
		recs += r.readRecs
		entries += r.entries
		verifyT += r.verify
		cpu.cpu += r.cpu.cpu
		cpu.alloc += r.cpu.alloc
		cpu.wchar += r.cpu.wchar
		cpu.gcPause += r.cpu.gcPause
	}
	o.attempted += uint64(len(rounds) * cfg.BRPs)
	// Nothing is planned, so the cost ratio is 1.
	cpuPerEvent := ratio(float64(cpu.cpu.Microseconds()), float64(recs))
	o.setE2E(setupS, cal.atRefSpeed(cpuPerEvent), peakRSS, 1)
	o.named = []metric{
		{"cpu_us_per_event_measured", "us", cpuPerEvent},
		{"ref_kernel_us", "us", median(cal.samples)},
		{"recovery_s", "s", median(recoveryMs) / 1e3},
		{"recovery_p50_ms", "ms", median(perBRP)},
		{"recovery_p90_ms", "ms", percentile(perBRP, 0.9)},
		{"readback_per_s", "records/s", median(readRates)},
		{"rounds", "count", float64(len(rounds))},
		{"history_records", "count", float64(h.records)},
		{"history_ledger_entries", "count", float64(h.ledgerEntries)},
	}
	last := rounds[len(rounds)-1]
	L := o.layer
	L.set("ingest.recovered", float64(last.recovered), "events replayed per reopen of all BRPs")
	L.setRatio("store.wal_bytes_per_record", uint64(h.walBytes), h.walRecords, "WAL bytes", "records")
	L.setRatio("settle.ledger_bytes_per_entry", uint64(h.ledgerBytes), h.ledgerEntries, "ledger bytes", "entries")
	L.set("settle.verify_entries_per_s", ratio(float64(entries), verifyT.Seconds()), fmt.Sprintf("entries %d / %.3fs", entries, verifyT.Seconds()))
	L.setProc(cpu, float64(recs))
	return o, nil
}

// reopenAndRead recovers every BRP of dir in turn, then reads back every
// acked record and verifies every ledger.
func reopenAndRead(ctx context.Context, cfg restartConfig, h *history, dir string, round int, o *outcome) (restartRound, []*core.Node) {
	tr := cfg.Trace
	var r restartRound
	nodes := make([]*core.Node, 0, cfg.BRPs)
	p0 := sampleProc()
	for b := 0; b < cfg.BRPs; b++ {
		name := brpName(b)
		id := fmt.Sprintf("%s/reopen-%d", name, round)
		bdir := filepath.Join(dir, name)
		t0 := time.Now()
		st, err := store.Open(bdir)
		t1 := time.Now()
		tr.record("store.open", id, -1, t0, t1)
		if err != nil {
			o.violate(1, "%s: reopen store: %v", name, err)
			r.recoveryMs = append(r.recoveryMs, math.Inf(1))
			continue
		}
		n, err := core.NewNode(brpConfig(name, bdir, st, nil, cfg.Seed+int64(b), cfg.Iters, tr))
		t2 := time.Now()
		tr.record("core.newnode", id, -1, t1, t2)
		if err != nil {
			_ = st.Close()
			o.violate(1, "%s: restart node: %v", name, err)
			r.recoveryMs = append(r.recoveryMs, math.Inf(1))
			continue
		}
		nodes = append(nodes, n)
		err = n.DrainIngest(ctx)
		t3 := time.Now()
		tr.record("ingest.drain_after_open", id, -1, t2, t3)
		o.check(err == nil, "%s: drain after reopen: %v", name, err)
		r.recoveryMs = append(r.recoveryMs, ms(t3.Sub(t0)))
		r.recovery += t3.Sub(t0)
		if is, ok := n.IngestStats(); ok {
			r.recovered += is.Recovered
		}
	}
	p1 := sampleProc()
	if len(nodes) < cfg.BRPs {
		return r, nodes
	}

	t0 := time.Now()
	for b, n := range nodes {
		st := n.Store()
		missing := 0
		for k, id := range h.offers[b] {
			s0 := time.Now()
			_, ok := st.GetOffer(id)
			if k%8 == 0 {
				tr.record("store.get_offer", n.Name(), -1, s0, time.Now())
			}
			if !ok {
				missing++
			}
		}
		o.violate(missing, "%s: %d acked offers missing after recovery", n.Name(), missing)
		r.readRecs += uint64(len(h.offers[b]))
		missing = 0
		for actor, slots := range h.meas[b] {
			s0 := time.Now()
			got := st.Measurements(store.MeasurementFilter{Actor: actor, EnergyType: "demand"})
			tr.record("store.meas_query", actor, -1, s0, time.Now())
			have := make(map[flexoffer.Time]bool, len(got))
			for _, m := range got {
				have[m.Slot] = true
			}
			for _, s := range slots {
				if !have[s] {
					missing++
				}
			}
			r.readRecs += uint64(len(slots))
		}
		o.violate(missing, "%s: %d acked measurements missing after recovery", n.Name(), missing)
	}
	t1 := time.Now()
	r.readback = t1.Sub(t0)
	for _, n := range nodes {
		v, err := n.Ledger().Verify()
		o.check(err == nil && v.OK, "%s: ledger chain does not verify after recovery: %v %s", n.Name(), err, v.Reason)
		r.entries += v.Entries
	}
	r.verify = time.Since(t1)
	p2 := sampleProc()
	o.check(r.entries == h.ledgerEntries, "ledgers hold %d entries after recovery, %d were acked", r.entries, h.ledgerEntries)
	a, b := p1.since(p0), p2.since(p1)
	r.cpu = procDelta{cpu: a.cpu + b.cpu, alloc: a.alloc + b.alloc, wchar: a.wchar + b.wchar, gcPause: a.gcPause + b.gcPause}
	return r, nodes
}
