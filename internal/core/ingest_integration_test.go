package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// newAsyncBRP builds a BRP whose intake runs through a durable ingest
// queue journaled under dir.
func newAsyncBRP(t *testing.T, bus *comm.Bus, dir string, breaker *comm.BreakerConfig) *Node {
	t.Helper()
	n, err := NewNode(Config{
		Name:      "brp1",
		Role:      store.RoleBRP,
		Transport: bus,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Ingest: &ingest.Config{
			Path:   filepath.Join(dir, "ingest.log"),
			Queue:  128,
			Policy: ingest.PolicyBlock,
		},
		Breaker: breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	bus.Register("brp1", n.Handler())
	return n
}

// TestAsyncIntakeCycle drives the full async path: offers and
// measurements are acked through the ingest queue, the cycle's drain
// barrier applies them before planning, and schedules come back to the
// prosumers exactly as on the synchronous path.
func TestAsyncIntakeCycle(t *testing.T) {
	bus := comm.NewBus()
	brp := newAsyncBRP(t, bus, t.TempDir(), nil)
	p1 := newProsumer(t, bus, "p1")
	p2 := newProsumer(t, bus, "p2")

	if d, err := p1.SubmitOfferTo(context.Background(), testOffer(1, 40, 16, 4, 5)); err != nil || !d.Accept {
		t.Fatalf("submit o1: %v %+v", err, d)
	}
	if d, err := p2.SubmitOfferTo(context.Background(), testOffer(2, 42, 12, 4, 5)); err != nil || !d.Accept {
		t.Fatalf("submit o2: %v %+v", err, d)
	}
	if err := brp.IngestMeasurements([]store.Measurement{
		{Actor: "p1", EnergyType: "elec", Slot: 1, KWh: 2},
		{Actor: "p2", EnergyType: "elec", Slot: 1, KWh: 3},
	}); err != nil {
		t.Fatalf("ingest measurements: %v", err)
	}
	// The ack does not promise visibility; the drain barrier does.
	if err := brp.DrainIngest(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(brp.Store().Measurements(store.MeasurementFilter{})); got != 2 {
		t.Fatalf("measurements after drain = %d, want 2", got)
	}
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferAccepted {
		t.Fatalf("offer 1 after drain = %+v, %v", rec, ok)
	}

	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MicroSchedules == 0 {
		t.Fatal("async cycle produced no micro schedules")
	}
	if rep.NotifyFailures != 0 || len(rep.SkippedOwners) != 0 {
		t.Fatalf("failures/skipped = %d/%v, want none", rep.NotifyFailures, rep.SkippedOwners)
	}
	for _, id := range []flexoffer.ID{1, 2} {
		if rec, ok := brp.Store().GetOffer(id); !ok || rec.State != store.OfferScheduled {
			t.Fatalf("offer %d = %+v (ok=%v), want scheduled", id, rec, ok)
		}
	}
	stats, ok := brp.IngestStats()
	if !ok {
		t.Fatal("IngestStats reported no queue")
	}
	if stats.Enqueued == 0 || stats.Consumed != stats.Enqueued {
		t.Fatalf("ingest stats enqueued/consumed = %d/%d", stats.Enqueued, stats.Consumed)
	}
}

// TestCycleSkipsBreakerOpenOwner is the acceptance scenario: one
// unreachable prosumer trips its circuit on the first cycle; the next
// cycle completes with that owner reported as skipped instead of
// paying another delivery failure.
func TestCycleSkipsBreakerOpenOwner(t *testing.T) {
	bus := comm.NewBus()
	brp := newAsyncBRP(t, bus, t.TempDir(), &comm.BreakerConfig{
		MinSamples:  1,
		FailureRate: 0.5,
		Cooldown:    time.Hour, // no half-open trial during this test
	})
	newProsumer(t, bus, "p1")
	// p2 is never registered: dead from the start.

	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	run := func(ids ...flexoffer.ID) *CycleReport {
		t.Helper()
		for i, id := range ids {
			owner := []string{"p1", "p2"}[i%2]
			if d := brp.AcceptOffer(testOffer(id, 40, 16, 4, 5), owner); !d.Accept {
				t.Fatalf("offer %d rejected: %s", id, d.Reason)
			}
		}
		rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Cycle 1: the delivery to p2 fails for real and trips the circuit.
	rep1 := run(1, 2)
	if rep1.NotifyFailures != 1 || len(rep1.SkippedOwners) != 0 {
		t.Fatalf("cycle 1 failures/skipped = %d/%v, want 1/none", rep1.NotifyFailures, rep1.SkippedOwners)
	}
	if got := brp.Breaker().State("p2"); got != comm.BreakerOpen {
		t.Fatalf("p2 circuit after cycle 1 = %v, want open", got)
	}

	// Cycle 2: p2 is skipped outright — degraded, not stalled.
	rep2 := run(3, 4)
	if rep2.NotifyFailures != 0 {
		t.Fatalf("cycle 2 failures = %d, want 0", rep2.NotifyFailures)
	}
	if len(rep2.SkippedOwners) != 1 || rep2.SkippedOwners[0] != "p2" {
		t.Fatalf("cycle 2 skipped = %v, want [p2]", rep2.SkippedOwners)
	}
	// The skipped owner's schedule is still committed locally; the offer
	// falls back downstream like any unreachable owner's would.
	if rec, ok := brp.Store().GetOffer(4); !ok || rec.State != store.OfferScheduled {
		t.Fatalf("skipped owner's offer = %+v (ok=%v), want scheduled", rec, ok)
	}
}

// TestCycleProbeHealsPeer verifies the end-of-cycle probe re-admits a
// recovered peer: after the cooldown a cycle (even an empty one) pings
// the tripped destination and re-closes its circuit.
func TestCycleProbeHealsPeer(t *testing.T) {
	bus := comm.NewBus()
	brp := newAsyncBRP(t, bus, t.TempDir(), &comm.BreakerConfig{
		MinSamples:  1,
		FailureRate: 0.5,
		Cooldown:    20 * time.Millisecond,
	})
	newProsumer(t, bus, "p1")

	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p2"); !d.Accept {
		t.Fatalf("offer rejected: %s", d.Reason)
	}
	if _, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := brp.Breaker().State("p2"); got != comm.BreakerOpen {
		t.Fatalf("p2 circuit = %v, want open", got)
	}

	// p2 comes back; after the cooldown an empty cycle's probe heals it.
	newProsumer(t, bus, "p2")
	time.Sleep(50 * time.Millisecond)
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HealedPeers) != 1 || rep.HealedPeers[0] != "p2" {
		t.Fatalf("healed = %v, want [p2]", rep.HealedPeers)
	}
	if got := brp.Breaker().State("p2"); got != comm.BreakerClosed {
		t.Fatalf("p2 circuit after probe = %v, want closed", got)
	}
}

// TestNodeCloseFlushesIngest pins the shutdown contract: Close drains
// the queue, so every acked event is in the store when the node exits.
func TestNodeCloseFlushesIngest(t *testing.T) {
	bus := comm.NewBus()
	dir := t.TempDir()
	brp := newAsyncBRP(t, bus, dir, nil)
	ms := make([]store.Measurement, 50)
	for i := range ms {
		ms[i] = store.Measurement{Actor: "p1", EnergyType: "elec", Slot: flexoffer.Time(i), KWh: 1}
	}
	if err := brp.IngestMeasurements(ms); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := brp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := len(brp.Store().Measurements(store.MeasurementFilter{})); got != 50 {
		t.Fatalf("measurements after close = %d, want 50", got)
	}
}

// TestCancelProsumerVoidsUndrainedOffer: an offer acked through the
// ingest queue but still waiting for a consumer is cancelled like any
// other — CancelProsumer drains intake first, bounded by its ctx.
func TestCancelProsumerVoidsUndrainedOffer(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	bus := comm.NewBus()
	brp, err := NewNode(Config{
		Name:      "brp1",
		Role:      store.RoleBRP,
		Transport: bus,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Ingest: &ingest.Config{
			Path:      filepath.Join(dir, "ingest.log"),
			Queue:     16,
			Consumers: 1,
			MaxBatch:  1,
			// The single consumer parks in the hook on the first
			// measurement batch, so the offer acked behind it stays
			// undrained until the test releases it.
			OnMeasurements: func([]store.Measurement) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
			},
		},
		Settlement: &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer brp.Close()
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall() // before Close, whose drain needs the consumer
	bus.Register("brp1", brp.Handler())
	p1 := newProsumer(t, bus, "p1")

	if err := brp.IngestMeasurements([]store.Measurement{{Actor: "p1", EnergyType: "elec", Slot: 1, KWh: 2}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if d, err := p1.SubmitOfferTo(context.Background(), testOffer(1, 40, 16, 4, 5)); err != nil || !d.Accept {
		t.Fatalf("submit: %v %+v", err, d)
	}
	if _, ok := brp.Store().GetOffer(1); ok {
		t.Fatal("offer already drained; the test needs it queued")
	}
	cfg := settle.CancelConfig{PenaltyEUR: 0.5}

	// The drain is bounded by the caller's ctx.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = brp.CancelProsumer(short, "p1", cfg)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel with a stalled drain = %v, want the ctx deadline", err)
	}

	type result struct {
		rep *settle.CancelReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := brp.CancelProsumer(context.Background(), "p1", cfg)
		done <- result{rep, err}
	}()
	var r result
	select {
	case r = <-done: // returned without waiting for intake
	case <-time.After(50 * time.Millisecond):
		unstall()
		r = <-done
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.rep.Cancelled) != 1 || r.rep.Cancelled[0] != 1 {
		t.Fatalf("cancelled = %v, want the undrained offer 1", r.rep.Cancelled)
	}
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferCancelled {
		t.Errorf("offer 1 = %+v, %v; want cancelled", rec, ok)
	}
	if n := brp.PendingOffers(); n != 0 {
		t.Errorf("pending offers = %d, want 0", n)
	}
}
