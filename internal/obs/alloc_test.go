//go:build !race

package obs

import (
	"testing"
	"time"
)

// The race detector instruments allocations, so the zero-alloc pin only
// runs in plain builds.
func TestRecordZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", n)
	}
}
