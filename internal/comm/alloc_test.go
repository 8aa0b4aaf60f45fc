//go:build !race

package comm

import (
	"context"
	"testing"

	"mirabel/internal/flexoffer"
)

// The race detector instruments allocations, so the allocation pin only
// runs in plain builds.

// maxSubmitOfferAllocs pins a Bus SubmitOffer round trip: client call,
// bus dispatch, mux, decode with a deep copy of the offer, and the typed
// decision reply. Before bodies travelled by reference the same round
// trip marshalled and unmarshalled both bodies through JSON.
const maxSubmitOfferAllocs = 18

func TestBusSubmitOfferAllocs(t *testing.T) {
	ctx := context.Background()
	bus := NewBus()
	echoNode(bus, "brp1")
	c := NewClient("p1", bus)
	offer := &flexoffer.FlexOffer{ID: 7, Prosumer: "p1", EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
		Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2.5}, {EnergyMin: 0, EnergyMax: 1}}}
	n := testing.AllocsPerRun(500, func() {
		if _, err := c.SubmitOffer(ctx, "brp1", offer); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Bus SubmitOffer round trip: %.1f allocs", n)
	if n > maxSubmitOfferAllocs {
		t.Fatalf("Bus SubmitOffer round trip allocates %.1f times, want <= %d", n, maxSubmitOfferAllocs)
	}
}
