package main

import (
	"context"
	"testing"
	"time"
)

// smallPopulation is the population workload scaled down to a test: one
// event-time day of 600 households on 2 BRPs.
func smallPopulation(t *testing.T, seed int64) detCounts {
	t.Helper()
	cfg := defaultPopConfig(seed, t.TempDir())
	cfg.Households, cfg.BRPs, cfg.Iters, cfg.Days, cfg.SetupRepeats = 600, 2, 50, 1, 1
	o, err := runPopulation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.correct() {
		t.Fatalf("correctness gate failed: %d failed, %v", o.failed, o.violations)
	}
	return o.counts
}

// TestSameSeedSameCounts: the seed alone fixes the work a run does, so
// counts repeat exactly for a seed and move with it.
func TestSameSeedSameCounts(t *testing.T) {
	a, b := smallPopulation(t, 7), smallPopulation(t, 7)
	if a != b {
		t.Errorf("same seed, different counts:\n  %+v\n  %+v", a, b)
	}
	if a.OffersAcked == 0 || a.MicroSchedules == 0 || a.LedgerEntries == 0 {
		t.Errorf("run did no work: %+v", a)
	}
	if c := smallPopulation(t, 8); c == a {
		t.Errorf("seeds 7 and 8 gave identical counts %+v", c)
	}
}

// TestPopulationWorkIsFixed: the measured population run does a fixed
// number of node-cycles, enough for the cycle p95 to rest on at least ten
// samples beyond it.
func TestPopulationWorkIsFixed(t *testing.T) {
	if n := defaultPopConfig(1, "").nodeCycles(); n < minNodeCycles {
		t.Errorf("population measures %d node-cycles, want >= %d", n, minNodeCycles)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	p := tr.record("core.cycle", "n/1", -1, at(0), at(100))
	tr.record("core.cycle.aggregate", "n/1", p, at(10), at(30))
	tr.record("core.cycle.schedule", "n/1", p, at(20), at(50)) // overlaps the first child
	tr.record("core.cycle.deliver", "n/1", p, at(90), at(120)) // runs past the parent
	call := tr.record("comm.call.flex_offer_submit", "w/1", -1, at(200), at(210))
	tr.record("core.handle.flex_offer_submit", "w/1", -1, at(202), at(207))
	sum := tr.summarize()
	if got := median(sum["core.cycle"].self); got != 50e3 {
		t.Errorf("cycle self = %vµs, want 50000: 100ms minus [10,50] and the clipped [90,100]", got)
	}
	if got := median(sum["comm.call.flex_offer_submit"].self); got != 5e3 {
		t.Errorf("call self = %vµs, want 5000: the handler span must link to its call by key", got)
	}
	if tr.spans[call].parent != -1 {
		t.Errorf("call span gained a parent")
	}
}
