// Package core is the LEDMS node (paper §3): the Control component that
// orchestrates communication, data management, aggregation, forecasting,
// scheduling and negotiation inside one node of the EDMS hierarchy. The
// same node type serves all three levels (the EDMS "consists of millions
// of homogeneous nodes"); the role only selects which duties are active.
//
// The node's planner-driven flows — the scheduling cycle, the
// forwarded-schedule relay and aggregate forwarding — follow a strict
// snapshot → plan → commit → deliver discipline (cycle.go, deliver.go):
// the node mutex is held only to capture immutable snapshots and to
// commit results, never across the scheduler search, aggregation-snapshot
// disaggregation or transport I/O, so offer intake stays responsive for
// the whole cycle no matter how slow the search or the prosumers are.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/market"
	"mirabel/internal/negotiate"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// Config assembles a node.
type Config struct {
	// Name is the node's endpoint name on the transport.
	Name string
	// Role selects prosumer / BRP / TSO duties.
	Role store.Role
	// Parent is the endpoint of the next hierarchy level (empty for a
	// TSO).
	Parent string
	// Transport connects the node to its peers.
	Transport comm.Transport
	// Store is the node's Data Management component (in-memory if nil).
	Store *store.Store

	// BRP/TSO specific configuration.
	AggParams agg.Params           // aggregation thresholds
	BinPacker agg.BinPackerOptions // optional bin-packer bounds
	Valuator  *negotiate.Valuator  // negotiation policy (default NewValuator)
	Scheduler sched.Scheduler      // scheduling strategy (default randomized greedy)
	SchedOpts sched.Options        // per-cycle scheduling budget
	// SchedWorkers > 1 runs the plan phase's search as a parallel
	// portfolio of that many workers (sched.Parallel): replicas of
	// Scheduler when one is configured, the default mixed portfolio
	// otherwise. 0 or 1 keeps the search single-threaded.
	SchedWorkers int
	// AggWorkers > 1 fans the cycle's batched per-aggregate work
	// (internal/agg sub-group transactions) across that many workers.
	// Results are identical at any worker count; 0 or 1 runs serially.
	AggWorkers     int
	Market         *market.DayAhead // optional market access
	HorizonSlots   int              // scheduling horizon (default one day)
	RequestTimeout time.Duration    // transport request timeout (default comm.DefaultTimeout)

	// NotifyLimit caps the concurrent outbound requests of the deliver
	// phase — schedule fan-out and parent submissions (default
	// comm.DefaultFanOutLimit).
	NotifyLimit int

	// Forecast optionally serves MsgForecastRequest queries from peers
	// (a forecast.Maintainer, a StaticForecast, ...). Nil nodes answer
	// forecast queries with an error.
	Forecast forecaster

	// Forecasting, when non-nil, runs the fleet-scale forecast service
	// (forecast.Registry): every measurement the node ingests — sync
	// store writes and async ingest drains alike — maintains a
	// per-(actor,energy) model, re-estimated on a bounded background
	// pool. Peers address individual series via ForecastRequest.Actor,
	// and the scheduling cycle publishes per-series forecast hubs after
	// its intake barrier.
	Forecasting *forecast.RegistryConfig

	// Middleware is appended to the node's built-in handler chain
	// (recovery, metrics) — the seam where logging, tracing or
	// rate-limiting layer in without touching dispatch.
	Middleware []comm.Middleware

	// Ingest, when non-nil, routes intake — measurement reports and
	// flex-offer records — through a durable async queue
	// (internal/ingest) instead of synchronous store round-trips:
	// producers are acked on the ingest journal's group commit and
	// consumers drain into the store with batch coalescing. Ingest.Store
	// is filled with the node's store; the scheduling cycle drains the
	// queue before snapshotting so plans always see every acked offer.
	Ingest *ingest.Config

	// Breaker, when non-nil, wraps Transport with per-destination
	// circuit breaking (comm.Breaker): tripped peers are skipped with
	// ErrBreakerOpen instead of stalling fan-out, and the cycle probes
	// open circuits after delivery so healed peers rejoin. Origin is
	// filled with the node's name.
	Breaker *comm.BreakerConfig

	// Retry, when non-nil, wraps the node's outbound transport with the
	// retry policy (comm.Retry): jittered exponential backoff, retries
	// restricted to idempotent message types unless the failure proves
	// the request never left. It composes OUTSIDE the breaker, so an
	// open circuit fails a call instantly instead of being hammered
	// through backoff loops.
	Retry *comm.RetryConfig

	// Settlement, when non-nil, opens a durable hash-chained settlement
	// ledger (settle.OpenLedger): SettleExecuted becomes a batched,
	// crash-recoverable run whose ledger appends are acked before
	// offers transition, and re-settlement after a crash dedups
	// against the chain. Nil keeps the seed-era in-memory settlement.
	Settlement *settle.LedgerConfig
}

// Node is one LEDMS instance.
type Node struct {
	cfg     Config
	client  *comm.Client
	handler comm.Handler
	metrics *comm.Metrics
	ingest  *ingest.Queue      // nil = synchronous intake
	breaker *comm.Breaker      // nil = no circuit breaking
	retry   *comm.Retry        // nil = no retry policy
	fcasts  *forecast.Registry // nil = no per-series forecast service
	ledger  *settle.Ledger     // nil = in-memory settlement only

	// cycleMu serializes the planner-driven flows (RunSchedulingCycle,
	// ForwardAggregates) against each other. It is never held while mu
	// is wanted by message handlers, and it IS held across transport
	// I/O — that is its point: long plan and deliver phases proceed
	// under cycleMu alone while intake keeps flowing under mu.
	cycleMu sync.Mutex

	mu       sync.Mutex
	store    *store.Store
	pipeline *agg.Pipeline
	valuator *negotiate.Valuator

	// snapCache holds the last Snapshot taken of each live aggregate,
	// keyed by macro flex-offer ID. A snapshot is reused while the live
	// aggregate's Version is unchanged, so stable aggregates cost the
	// planning phase nothing cycle over cycle.
	snapCache map[flexoffer.ID]*agg.Aggregate

	// planTime is the node's latest planning time: the start slot of
	// the most recent scheduling cycle. Offer valuation and forecast
	// replies are anchored at it.
	planTime flexoffer.Time

	// pending maps accepted-but-unscheduled offers (the paper's pending
	// flexibilities that may time out).
	pending map[flexoffer.ID]*flexoffer.FlexOffer

	// received schedules on a prosumer node.
	schedules map[flexoffer.ID]*flexoffer.Schedule

	// forwarded maps the IDs of macro flex-offers delegated to the
	// parent (paper §2: aggregated flex-offers are sent to the TSO "for
	// further aggregation, scheduling, and disaggregation") back to the
	// local aggregate they represent.
	forwarded map[flexoffer.ID]flexoffer.ID
	nextFwdID flexoffer.ID

	// recoveredPending counts accepted offers re-admitted into the
	// planning pipeline from the store at construction — a reopened node
	// schedules what its predecessor had accepted but not yet placed.
	recoveredPending int
}

// NewNode builds a node and registers nothing — attach it to a transport
// with comm.Bus.Register(name, node.Handler()) or
// comm.ListenTCP(addr, node.Handler()).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: node needs a name")
	}
	if cfg.Role == "" {
		return nil, fmt.Errorf("core: node needs a role")
	}
	if cfg.Store == nil {
		cfg.Store = store.NewInMemory()
	}
	if cfg.Valuator == nil {
		cfg.Valuator = negotiate.NewValuator()
	}
	switch {
	case cfg.SchedWorkers > 1 && cfg.Scheduler != nil:
		cfg.Scheduler = &sched.Parallel{Workers: cfg.SchedWorkers, Strategies: []sched.Scheduler{cfg.Scheduler}}
	case cfg.SchedWorkers > 1:
		cfg.Scheduler = &sched.Parallel{Workers: cfg.SchedWorkers}
	case cfg.Scheduler == nil:
		cfg.Scheduler = &sched.RandomizedGreedy{}
	}
	if cfg.HorizonSlots <= 0 {
		cfg.HorizonSlots = flexoffer.SlotsPerDay
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = comm.DefaultTimeout
	}
	n := &Node{
		cfg:       cfg,
		metrics:   &comm.Metrics{},
		store:     cfg.Store,
		pipeline:  agg.NewPipeline(cfg.AggParams, cfg.BinPacker),
		valuator:  cfg.Valuator,
		snapCache: make(map[flexoffer.ID]*agg.Aggregate),
		pending:   make(map[flexoffer.ID]*flexoffer.FlexOffer),
		schedules: make(map[flexoffer.ID]*flexoffer.Schedule),
		forwarded: make(map[flexoffer.ID]flexoffer.ID),
		nextFwdID: 1 << 32, // forwarded macro offers use a disjoint id space
	}
	n.pipeline.Workers = cfg.AggWorkers
	if cfg.Transport != nil {
		transport := cfg.Transport
		if cfg.Breaker != nil {
			bc := *cfg.Breaker
			bc.Origin = cfg.Name
			n.breaker = comm.NewBreaker(transport, bc)
			transport = n.breaker
		}
		if cfg.Retry != nil {
			// Retry outermost: a retry that meets ErrBreakerOpen aborts
			// instead of sleeping through backoff against a dead peer.
			n.retry = comm.NewRetry(transport, *cfg.Retry)
			transport = n.retry
		}
		n.client = comm.NewClient(cfg.Name, transport, comm.WithRequestTimeout(cfg.RequestTimeout))
	}
	if cfg.Forecasting != nil {
		reg, err := forecast.NewRegistry(*cfg.Forecasting)
		if err != nil {
			return nil, fmt.Errorf("core: forecast registry: %w", err)
		}
		n.fcasts = reg
	}
	if cfg.Ingest != nil {
		ic := *cfg.Ingest
		ic.Store = n.store
		if n.fcasts != nil {
			// The apply funnel feeds the forecast service: live consumed
			// batches, deferred events re-admitted from disk, and journal
			// recovery replays all maintain the per-series models.
			prev := ic.OnMeasurements
			reg := n.fcasts
			ic.OnMeasurements = func(ms []store.Measurement) {
				reg.UpdateMeasurements(ms)
				if prev != nil {
					prev(ms)
				}
			}
		}
		q, err := ingest.Open(ic)
		if err != nil {
			return nil, fmt.Errorf("core: open ingest queue: %w", err)
		}
		n.ingest = q
	}
	if cfg.Settlement != nil {
		l, err := settle.OpenLedger(*cfg.Settlement)
		if err != nil {
			return nil, fmt.Errorf("core: open settlement ledger: %w", err)
		}
		n.ledger = l
	}

	// Crash recovery for the planning state: a predecessor's accepted
	// offers live in the store (and possibly still in the ingest
	// journal), but pending/pipeline are in-memory and died with it.
	// Re-admit them so a restarted BRP schedules what it had already
	// promised, instead of letting acked offers sit accepted forever.
	if cfg.Role != store.RoleProsumer {
		if n.ingest != nil {
			// Journal replay finishes first, so offers acked durable but
			// never applied are visible to the scan below.
			dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := n.ingest.Drain(dctx)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("core: recover ingest journal: %w", err)
			}
		}
		for _, rec := range n.store.Offers(store.OfferFilter{State: store.OfferAccepted}) {
			if rec.Offer == nil {
				continue
			}
			if err := n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: rec.Offer}); err != nil {
				continue // malformed record: planning just skips it
			}
			n.pending[rec.Offer.ID] = rec.Offer
			n.recoveredPending++
		}
	}

	// Dispatch: one registered handler per message type, wrapped in the
	// node's middleware chain. Recover sits innermost so a handler
	// panic surfaces as an ordinary error to the configured middleware
	// (logging sees it) and to Collect (metrics count it).
	mux := comm.NewMux()
	mux.Handle(comm.MsgFlexOfferSubmit, n.handleOfferSubmit)
	mux.Handle(comm.MsgMeasurementReport, n.handleMeasurement)
	mux.Handle(comm.MsgMeasurementBatch, n.handleMeasurementBatch)
	mux.Handle(comm.MsgScheduleNotify, n.handleScheduleNotify)
	mux.Handle(comm.MsgForecastRequest, n.handleForecastRequest)
	mux.Handle(comm.MsgPing, n.handlePing)
	mux.HandleFallback(func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		return nil, fmt.Errorf("core: %s cannot handle %s", n.cfg.Name, env.Type)
	})
	chain := append([]comm.Middleware{n.metrics.Collect()}, cfg.Middleware...)
	chain = append(chain, comm.Recover())
	n.handler = comm.Chain(mux.Serve, chain...)

	if err := n.store.PutActor(store.Actor{ID: cfg.Name, Name: cfg.Name, Role: cfg.Role, Parent: cfg.Parent}); err != nil {
		return nil, err
	}
	return n, nil
}

// Name returns the node's endpoint name.
func (n *Node) Name() string { return n.cfg.Name }

// Store exposes the node's data management component.
func (n *Node) Store() *store.Store { return n.store }

// Metrics exposes the node's per-message-type handler statistics.
func (n *Node) Metrics() *comm.Metrics { return n.metrics }

// Handler returns the node's message entry point — the per-type
// dispatch wrapped in its middleware chain — for registration on a
// transport.
func (n *Node) Handler() comm.Handler { return n.handler }

// Handle processes one envelope through the full handler chain
// (convenience for in-process callers and tests).
func (n *Node) Handle(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	return n.handler(ctx, env)
}

// handlePing answers liveness probes.
func (n *Node) handlePing(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	reply, err := comm.NewEnvelope(comm.MsgPong, n.cfg.Name, env.From, nil)
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

// handleForecastRequest serves forecast queries from the node's
// configured forecast source (paper §3: forecasts are first-class
// messages between nodes). Replies are anchored at the node's latest
// planning time, so the caller knows which slot Values[0] refers to.
func (n *Node) handleForecastRequest(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var req comm.ForecastRequest
	if err := env.Decode(comm.MsgForecastRequest, &req); err != nil {
		return nil, err
	}
	if req.Horizon <= 0 {
		return nil, fmt.Errorf("core: forecast horizon must be positive, got %d", req.Horizon)
	}
	var values []float64
	switch {
	case req.Actor != "":
		// Per-series query against the fleet forecast registry.
		if n.fcasts == nil {
			return nil, fmt.Errorf("core: %s has no forecast registry", n.cfg.Name)
		}
		v, ok := n.fcasts.Forecast(req.Actor, req.EnergyType, req.Horizon)
		if !ok {
			return nil, fmt.Errorf("core: %s has no model for series (%s, %s) yet", n.cfg.Name, req.Actor, req.EnergyType)
		}
		values = v
	case n.cfg.Forecast != nil:
		values = n.cfg.Forecast.Forecast(req.Horizon)
	default:
		return nil, fmt.Errorf("core: %s has no forecast source", n.cfg.Name)
	}
	reply, err := comm.NewEnvelope(comm.MsgForecastReply, n.cfg.Name, env.From, comm.ForecastReply{
		EnergyType: req.EnergyType,
		FirstSlot:  n.PlanningTime(),
		Values:     values,
	})
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

// handleOfferSubmit runs negotiation and feeds accepted offers into the
// aggregation pipeline (BRP/TSO duty).
func (n *Node) handleOfferSubmit(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	if n.cfg.Role == store.RoleProsumer {
		return nil, fmt.Errorf("core: prosumer %s does not take flex-offers", n.cfg.Name)
	}
	var body comm.FlexOfferSubmit
	if err := env.Decode(comm.MsgFlexOfferSubmit, &body); err != nil {
		return nil, err
	}
	decision := n.acceptOffer(ctx, body.Offer, env.From)
	reply, err := comm.NewEnvelope(comm.MsgFlexOfferDecision, n.cfg.Name, env.From, comm.FlexOfferDecision{
		OfferID:    body.Offer.ID,
		Accept:     decision.Accept,
		Reason:     decision.Reason,
		PremiumEUR: decision.Price,
	})
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

// AcceptOffer is the in-process form of flex-offer submission: the
// negotiation component decides; accepted offers enter the store and the
// aggregation pipeline as pending flexibilities. It never blocks on a
// running scheduling cycle — intake only needs the node mutex, which
// the cycle releases for its plan and deliver phases.
func (n *Node) AcceptOffer(f *flexoffer.FlexOffer, owner string) negotiate.Decision {
	return n.acceptOffer(context.Background(), f, owner)
}

func (n *Node) acceptOffer(ctx context.Context, f *flexoffer.FlexOffer, owner string) negotiate.Decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Negotiation evaluates at the current planning time: the node's
	// notion of "now" is the earliest moment it could still schedule.
	decision := n.valuator.Decide(f, n.nowLocked())
	// The stored offer carries the negotiated premium, which settlement
	// reads back after execution.
	priced := f.Clone()
	priced.CostPerKWh = decision.Price
	if decision.Accept {
		// Accumulate, don't process: intake only validates against the
		// pipeline's membership index and appends to its pending batch.
		// Grouping, packing and aggregation run once per cycle (phase 0
		// of snapshotForPlanning), so the lock hold here is O(1) no
		// matter how hot the intake path runs.
		if err := n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: priced}); err != nil {
			// The pipeline rejected the offer (e.g. duplicate id).
			decision = negotiate.Decision{Accept: false, Reason: err.Error()}
		}
	}
	state := store.OfferRejected
	if decision.Accept {
		state = store.OfferAccepted
	}
	// Persist the final record exactly once — after the pipeline verdict
	// — so the async intake path never journals two racing records for
	// one submission.
	rec := store.OfferRecord{Offer: priced, Owner: owner, State: state}
	if err := n.persistOffer(ctx, rec); err != nil {
		if decision.Accept {
			// Keep the pipeline consistent with the store: the delete
			// cancels the still-pending insert at zero cost.
			_ = n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Delete, Offer: priced})
		}
		return negotiate.Decision{Accept: false, Reason: err.Error()}
	}
	if decision.Accept {
		n.pending[f.ID] = priced
	}
	return decision
}

// persistOffer writes one flex-offer record through the configured
// intake path: the ingest queue (acked on journal group commit, applied
// asynchronously) or the store directly.
func (n *Node) persistOffer(ctx context.Context, rec store.OfferRecord) error {
	if n.ingest != nil {
		return n.ingest.SubmitOffer(ctx, rec)
	}
	return n.store.PutOffer(rec)
}

// nowLocked is the node's planning time: the start slot of the most
// recent scheduling cycle (zero until the first cycle runs — the
// simulation drives time explicitly). Caller holds mu.
func (n *Node) nowLocked() flexoffer.Time { return n.planTime }

// PlanningTime returns the node's latest planning time — the anchor of
// forecast replies and offer valuation.
func (n *Node) PlanningTime() flexoffer.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.planTime
}

// handleMeasurement stores a reported measurement (BRP duty).
func (n *Node) handleMeasurement(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var body comm.MeasurementReport
	if err := env.Decode(comm.MsgMeasurementReport, &body); err != nil {
		return nil, err
	}
	m := store.Measurement{Actor: body.Actor, EnergyType: body.EnergyType, Slot: body.Slot, KWh: body.KWh}
	if n.ingest != nil {
		return nil, n.ingest.SubmitMeasurements(ctx, []store.Measurement{m})
	}
	if err := n.store.PutMeasurement(m); err != nil {
		return nil, err
	}
	if n.fcasts != nil {
		n.fcasts.Update(m.Actor, m.EnergyType, m.KWh)
	}
	return nil, nil
}

// handleMeasurementBatch stores a reported meter-stream batch through
// the store's batch path: the whole report is one WAL group commit.
func (n *Node) handleMeasurementBatch(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var body comm.MeasurementBatch
	if err := env.Decode(comm.MsgMeasurementBatch, &body); err != nil {
		return nil, err
	}
	ms := make([]store.Measurement, len(body.Reports))
	for i, r := range body.Reports {
		ms[i] = store.Measurement{Actor: r.Actor, EnergyType: r.EnergyType, Slot: r.Slot, KWh: r.KWh}
	}
	if n.ingest != nil {
		return nil, n.ingest.SubmitMeasurements(ctx, ms)
	}
	if err := n.store.PutMeasurementsBatch(ms); err != nil {
		return nil, err
	}
	if n.fcasts != nil {
		n.fcasts.UpdateMeasurements(ms)
	}
	return nil, nil
}

// IngestMeasurements stores a batch of metered values locally — through
// the async ingest queue when one is configured (acked on journal group
// commit), otherwise as one synchronous WAL group commit. The bulk
// intake path for meter streams and backfills (the remote form is
// Client.ReportMeasurements).
func (n *Node) IngestMeasurements(ms []store.Measurement) error {
	if n.ingest != nil {
		return n.ingest.SubmitMeasurements(context.Background(), ms)
	}
	if err := n.store.PutMeasurementsBatch(ms); err != nil {
		return err
	}
	if n.fcasts != nil {
		n.fcasts.UpdateMeasurements(ms)
	}
	return nil
}

// IngestStats reports the async intake queue's counters; ok is false
// when the node runs synchronous intake.
func (n *Node) IngestStats() (ingest.Stats, bool) {
	if n.ingest == nil {
		return ingest.Stats{}, false
	}
	return n.ingest.Stats(), true
}

// DrainIngest waits until every acked intake event has been applied to
// the store (no-op without an ingest queue). The scheduling cycle calls
// it implicitly; explicit callers use it as a read-your-writes barrier.
func (n *Node) DrainIngest(ctx context.Context) error {
	if n.ingest == nil {
		return nil
	}
	return n.ingest.Drain(ctx)
}

// Breaker exposes the node's circuit breaker (nil when none is
// configured).
func (n *Node) Breaker() *comm.Breaker { return n.breaker }

// RetryStats reports the outbound retry policy's counters; ok is false
// when the node runs without one.
func (n *Node) RetryStats() (comm.RetryStats, bool) {
	if n.retry == nil {
		return comm.RetryStats{}, false
	}
	return n.retry.Stats(), true
}

// ForecastRegistry exposes the node's fleet forecast service (nil when
// Config.Forecasting is unset).
func (n *Node) ForecastRegistry() *forecast.Registry { return n.fcasts }

// ForecastSeries serves the forecast of one maintained (actor, energy
// type) series; ok is false without a registry or while the series is
// unknown / still warming up.
func (n *Node) ForecastSeries(actor, energyType string, horizon int) (values []float64, ok bool) {
	if n.fcasts == nil {
		return nil, false
	}
	return n.fcasts.Forecast(actor, energyType, horizon)
}

// ForecastHub returns the publish-subscribe hub of one series for
// continuous forecast queries (nil without a registry). The scheduling
// cycle publishes all dirty hubs after its intake barrier.
func (n *Node) ForecastHub(actor, energyType string) *forecast.Hub {
	if n.fcasts == nil {
		return nil
	}
	return n.fcasts.Hub(actor, energyType)
}

// ForecastStats reports the forecast registry's counters; ok is false
// when the node runs no registry.
func (n *Node) ForecastStats() (forecast.RegistryStats, bool) {
	if n.fcasts == nil {
		return forecast.RegistryStats{}, false
	}
	return n.fcasts.Stats(), true
}

// Close shuts the node's background machinery down: the ingest queue is
// drained (best effort) and closed so every acked event reaches the
// store before the process exits.
func (n *Node) Close() error {
	var err error
	if n.ingest != nil {
		err = n.ingest.Close()
	}
	if n.fcasts != nil {
		// After the ingest drain, so the refit pool outlives the last
		// measurement batch the consumers feed it.
		n.fcasts.Close()
	}
	if n.ledger != nil {
		if lerr := n.ledger.Close(); err == nil {
			err = lerr
		}
	}
	return err
}

// Kill simulates a crash for recovery testing: the ingest queue's
// consumers stop with the in-memory backlog abandoned (journaled acks
// stay on disk for replay), and the forecast service, ledger and store
// close without the drain barrier Close performs. The node must not be
// used afterwards; rebuild it over the same directories to recover.
func (n *Node) Kill() {
	if n.ingest != nil {
		n.ingest.Kill()
	}
	if n.fcasts != nil {
		n.fcasts.Close()
	}
	if n.ledger != nil {
		_ = n.ledger.Close()
	}
	_ = n.store.Close()
}

// RecoveredPending reports how many accepted offers the node re-admitted
// into its planning pipeline from the store at construction.
func (n *Node) RecoveredPending() int { return n.recoveredPending }

// CancelProsumer settles a prosumer leaving mid-contract
// (settle.CancelActor): every open offer of theirs is voided with a
// penalty entry on the ledger, one close-out entry zeroes their balance,
// and their still-pending offers leave the aggregation pipeline so the
// next cycle plans without them. Requires a settlement ledger.
//
// Offers acked through the async ingest queue but not yet applied count
// too: intake is drained first, bounded by ctx, so the outcome does not
// depend on how far the consumers have got.
func (n *Node) CancelProsumer(ctx context.Context, prosumer string, cfg settle.CancelConfig) (*settle.CancelReport, error) {
	if n.ledger == nil {
		return nil, fmt.Errorf("core: %s has no settlement ledger to cancel against", n.cfg.Name)
	}
	n.cycleMu.Lock()
	defer n.cycleMu.Unlock()
	if n.ingest != nil {
		if err := n.ingest.Drain(ctx); err != nil {
			return nil, fmt.Errorf("core: drain ingest before cancelling %s: %w", prosumer, err)
		}
	}
	rep, err := settle.CancelActor(n.store, n.ledger, prosumer, cfg)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	for _, id := range rep.Cancelled {
		if off, ok := n.pending[id]; ok {
			delete(n.pending, id)
			_ = n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Delete, Offer: off})
		}
	}
	n.mu.Unlock()
	return rep, nil
}

// PendingOffers returns the accepted, not-yet-scheduled offers.
func (n *Node) PendingOffers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// Aggregates exposes the current macro flex-offers (diagnostics). Any
// accumulated intake is processed first so the view includes every
// accepted offer, not just those a cycle has already batched in.
func (n *Node) Aggregates() []*agg.Aggregate {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pipeline.Process()
	return n.pipeline.Aggregates()
}

// SettleExecuted settles all scheduled flex-offers against their metered
// execution: premiums are paid, deviations penalized and (optionally)
// the realized profit shared — the execution-time half of the
// negotiation component. metered maps offer IDs to measured energy per
// schedule slice; offers without metering are treated as perfectly
// compliant (metered = scheduled). Settled offers move to the executed
// state.
//
// With a settlement ledger (Config.Settlement) this is a batched,
// crash-recoverable run: every batch's ledger append is acked durable
// before its offers transition, and a re-run after a crash dedups
// against the chain (settle.Run). Settlement serializes with the
// planner-driven flows under cycleMu — it is held across ledger fsyncs,
// so intake keeps flowing under mu meanwhile.
func (n *Node) SettleExecuted(metered map[flexoffer.ID][]float64, cfg settle.Config) (*settle.RunReport, error) {
	n.cycleMu.Lock()
	defer n.cycleMu.Unlock()
	if n.ledger != nil {
		return settle.Run(settle.RunConfig{
			Store:   n.store,
			Ledger:  n.ledger,
			Metered: metered,
			Settle:  cfg,
		})
	}

	// Ledgerless path: one in-memory settlement and one batched
	// transition (single WAL group), no durability beyond the store.
	var items []settle.Item
	var recs []store.OfferRecord
	for _, rec := range n.store.Offers(store.OfferFilter{State: store.OfferScheduled}) {
		if rec.Schedule == nil {
			continue
		}
		m, ok := metered[rec.Offer.ID]
		if !ok {
			m = settle.MeteredFromSchedule(rec.Schedule)
		}
		items = append(items, settle.Item{
			Offer:      rec.Offer,
			Schedule:   rec.Schedule,
			PremiumEUR: rec.Offer.CostPerKWh,
			Metered:    m,
		})
		recs = append(recs, rec)
	}
	rep, err := settle.Settle(items, cfg)
	if err != nil {
		return nil, err
	}
	updates := make([]store.OfferUpdate, len(recs))
	for i, rec := range recs {
		updates[i] = store.OfferUpdate{ID: rec.Offer.ID, Mutate: func(r *store.OfferRecord) {
			r.State = store.OfferExecuted
		}}
	}
	results, err := n.store.UpdateOffers(updates)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	out := &settle.RunReport{Report: *rep}
	if len(recs) > 0 {
		out.Batches = 1
	}
	return out, nil
}

// Ledger exposes the node's settlement ledger (nil without
// Config.Settlement) for balance queries and chain verification.
func (n *Node) Ledger() *settle.Ledger { return n.ledger }

// LedgerStats snapshots the settlement ledger's counters; ok is false
// when the node has no ledger.
func (n *Node) LedgerStats() (settle.LedgerStats, bool) {
	if n.ledger == nil {
		return settle.LedgerStats{}, false
	}
	return n.ledger.Stats(), true
}

// SubmitOfferTo sends a flex-offer to the node's parent and returns the
// decision (prosumer duty).
func (n *Node) SubmitOfferTo(ctx context.Context, f *flexoffer.FlexOffer) (comm.FlexOfferDecision, error) {
	if n.client == nil || n.cfg.Parent == "" {
		return comm.FlexOfferDecision{}, fmt.Errorf("core: %s has no parent to submit to", n.cfg.Name)
	}
	if err := n.store.PutOffer(store.OfferRecord{Offer: f, Owner: n.cfg.Name, State: store.OfferReceived}); err != nil {
		return comm.FlexOfferDecision{}, err
	}
	decision, err := n.client.SubmitOffer(ctx, n.cfg.Parent, f)
	if err != nil {
		return comm.FlexOfferDecision{}, err
	}
	state := store.OfferRejected
	if decision.Accept {
		state = store.OfferAccepted
	}
	// One atomic round-trip: if the parent's schedule already arrived
	// (delivery can race the decision reply), the record has moved past
	// the handshake and keeps its schedule and state instead of being
	// stomped back to the decision.
	if _, err := n.store.UpdateOffer(f.ID, func(rec *store.OfferRecord) {
		if rec.State == store.OfferReceived {
			rec.State = state
		}
	}); err != nil {
		return comm.FlexOfferDecision{}, err
	}
	return decision, nil
}

// ReportMeasurement sends a metered value to the parent and stores it
// locally (prosumer duty).
func (n *Node) ReportMeasurement(ctx context.Context, energyType string, slot flexoffer.Time, kwh float64) error {
	if err := n.store.PutMeasurement(store.Measurement{Actor: n.cfg.Name, EnergyType: energyType, Slot: slot, KWh: kwh}); err != nil {
		return err
	}
	if n.client == nil || n.cfg.Parent == "" {
		return nil
	}
	return n.client.ReportMeasurement(ctx, n.cfg.Parent, comm.MeasurementReport{
		Actor: n.cfg.Name, EnergyType: energyType, Slot: slot, KWh: kwh,
	})
}

// QueryParentForecast asks the parent node for its forecast of
// energyType over horizon slots (prosumer/BRP duty).
func (n *Node) QueryParentForecast(ctx context.Context, energyType string, horizon int) (comm.ForecastReply, error) {
	if n.client == nil || n.cfg.Parent == "" {
		return comm.ForecastReply{}, fmt.Errorf("core: %s has no parent to query", n.cfg.Name)
	}
	return n.client.QueryForecast(ctx, n.cfg.Parent, energyType, horizon)
}

// forecaster produces the baseline for a horizon; the node's scheduling
// cycle accepts any source (a forecast.Maintainer, a fixed series, ...).
type forecaster interface {
	Forecast(h int) []float64
}

// ensure forecast.Maintainer satisfies the forecaster seam.
var _ forecaster = (*forecast.Maintainer)(nil)
