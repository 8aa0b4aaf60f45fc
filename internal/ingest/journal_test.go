package ingest

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// The journal a producer writes for one queued offer and one deferred
// measurement batch, byte for byte: the format recovery and refill
// read, kept stable across releases.
const (
	goldenOfferLine = `offer|0|d6a1b821|{"offer":{"ID":42,"Prosumer":"h-7","EarliestStart":10,"LatestStart":14,"AssignBefore":9,"Profile":[{"EnergyMin":0.5,"EnergyMax":1.25}],"CostPerKWh":0.03},"owner":"h-7","state":"accepted"}` + "\n"
	goldenMeasLine  = `meas|1|be383724|[{"actor":"h-7","energy_type":"demand","slot":11,"kwh":0.375}]` + "\n"
)

func TestJournalBytesStable(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	q := newIdleQueue(t, Config{Store: s, Path: path, Queue: 1, Policy: PolicyDefer, MaxBatch: 8, Consumers: 1})
	ctx := context.Background()
	rec := store.OfferRecord{
		Offer: &flexoffer.FlexOffer{ID: 42, Prosumer: "h-7", EarliestStart: 10, LatestStart: 14, AssignBefore: 9,
			Profile: []flexoffer.Slice{{EnergyMin: 0.5, EnergyMax: 1.25}}, CostPerKWh: 0.03},
		Owner: "h-7", State: store.OfferAccepted,
	}
	if err := q.SubmitOffer(ctx, rec); err != nil {
		t.Fatal(err)
	}
	// The queue holds one event, so the batch is parked on disk.
	if err := q.SubmitMeasurements(ctx, []store.Measurement{{Actor: "h-7", EnergyType: "demand", Slot: 11, KWh: 0.375}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenOfferLine + goldenMeasLine; string(got) != want {
		t.Errorf("journal bytes changed:\n got %q\nwant %q", got, want)
	}
	for _, line := range []string{goldenOfferLine, goldenMeasLine} {
		if _, _, ok := decodeEvent([]byte(line)); !ok {
			t.Errorf("golden line %q does not decode", line)
		}
	}
	startConsumers(q, 1)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
