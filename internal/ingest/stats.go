package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/obs"
	"mirabel/internal/store"
)

// Stats is a point-in-time snapshot of the queue's behaviour: how deep
// the backlog runs, how fast acks come back, and how well consumers
// coalesce.
type Stats struct {
	Enqueued  uint64 // events acked (journaled or staged)
	Consumed  uint64 // events applied to the store
	Shed      uint64 // submissions rejected with ErrOverloaded
	Deferred  uint64 // events parked on disk by PolicyDefer
	Recovered uint64 // events replayed from the journal at Open

	Depth       int // events staged in memory right now
	DiskBacklog int // deferred events awaiting refill right now

	AckP50, AckP95, AckP99 time.Duration // producer ack latency since Open

	Batches      uint64  // coalesced store applies
	MeanBatch    float64 // events per apply
	MaxBatchSeen int

	ApplyErrors uint64

	Compactions    uint64 // sealed journal segments retired mid-run
	CompactedBytes uint64 // journal bytes reclaimed by those compactions

	Journal store.LogStats // group-commit counters of the journal
}

// statsCollector accumulates queue counters and the ack-latency
// histogram with atomic hot paths; a mutex guards only the first apply
// error.
type statsCollector struct {
	enqueued      atomic.Uint64
	consumed      atomic.Uint64
	shed          atomic.Uint64
	deferredTotal atomic.Uint64
	recovered     atomic.Uint64
	batches       atomic.Uint64
	batchEvents   atomic.Uint64
	maxBatch      atomic.Int64
	applyErrs     atomic.Uint64
	compactions   atomic.Uint64
	compactedByte atomic.Uint64
	ack           obs.Histogram

	mu       sync.Mutex
	firstErr error
}

func (c *statsCollector) observeAck(d time.Duration) { c.ack.Record(d) }

func (c *statsCollector) observeBatch(n int) {
	c.consumed.Add(uint64(n))
	c.batches.Add(1)
	c.batchEvents.Add(uint64(n))
	for {
		cur := c.maxBatch.Load()
		if int64(n) <= cur || c.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func (c *statsCollector) noteApplyErr(err error) {
	c.applyErrs.Add(1)
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

func (c *statsCollector) firstApplyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

func (c *statsCollector) snapshot() Stats {
	s := Stats{
		Enqueued:     c.enqueued.Load(),
		Consumed:     c.consumed.Load(),
		Shed:         c.shed.Load(),
		Deferred:     c.deferredTotal.Load(),
		Recovered:    c.recovered.Load(),
		Batches:      c.batches.Load(),
		MaxBatchSeen: int(c.maxBatch.Load()),
		ApplyErrors:  c.applyErrs.Load(),

		Compactions:    c.compactions.Load(),
		CompactedBytes: c.compactedByte.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(c.batchEvents.Load()) / float64(s.Batches)
	}
	q := c.ack.Quantiles(0.50, 0.95, 0.99)
	s.AckP50, s.AckP95, s.AckP99 = q[0], q[1], q[2]
	return s
}
