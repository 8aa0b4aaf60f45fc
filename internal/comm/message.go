// Package comm is the MIRABEL Communication component (paper §3):
// message exchange between LEDMS nodes — "flex-offers, supply and demand
// measurements, forecasts, etc." — for an EDMS that "consists of
// millions of homogeneous nodes".
//
// The package is layered, context-first throughout:
//
//   - Envelope is the wire unit: a typed payload with routing
//     metadata. Two Transports move envelopes: an in-process Bus for
//     population-scale simulation, which passes bodies by reference and
//     hands each receiver a deep copy, and a TCP transport for real
//     deployments, where the envelope is a typed JSON payload in
//     length-prefixed frames over bounded per-destination
//     connection pools, with requests correlated to replies by
//     Envelope.Seq so any number of round trips pipeline per
//     connection. Concurrent operations on one TCPClient overlap
//     fully (no client-wide lock covers I/O), so a fan-out wave
//     completes in the time of its slowest peer, not the sum. Both
//     transports offer request/response and true fire-and-forget
//     semantics and honor context cancellation and deadlines: a
//     canceled Request returns ctx.Err() promptly on both. On the Bus
//     the serving Handler observes the caller's cancellation directly;
//     over TCP the handler runs under a server-scoped context
//     (canceled on shutdown) and a caller's mid-flight cancel unblocks
//     only the calling side, leaving the pooled connection healthy.
//
//   - Client is the typed RPC surface applications use: SubmitOffer,
//     QueryForecast, NotifySchedules, ReportMeasurement, Ping. It owns
//     envelope construction and reply decoding; callers never touch
//     NewEnvelope/Decode.
//
//   - Mux routes inbound envelopes to per-MsgType Handlers, and
//     Middleware (Recover, Logging, Metrics.Collect — composed with
//     Chain) layers cross-cutting behaviour over every handler
//     uniformly.
//
// A minimal node:
//
//	mux := comm.NewMux()
//	mux.Handle(comm.MsgPing, func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
//		pong, err := comm.NewEnvelope(comm.MsgPong, "me", env.From, nil)
//		return &pong, err
//	})
//	bus.Register("me", comm.Chain(mux.Serve, comm.Recover()))
//
//	client := comm.NewClient("you", bus)
//	err := client.Ping(ctx, "me")
package comm

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"

	"mirabel/internal/flexoffer"
)

// MsgType tags the payload carried by an envelope.
type MsgType string

// The message vocabulary of the EDMS.
const (
	// MsgFlexOfferSubmit: prosumer → BRP (or BRP → TSO): a new
	// flex-offer.
	MsgFlexOfferSubmit MsgType = "flex_offer_submit"
	// MsgFlexOfferDecision: BRP → prosumer: accept/reject with the
	// negotiated premium.
	MsgFlexOfferDecision MsgType = "flex_offer_decision"
	// MsgScheduleNotify: BRP → prosumer: the scheduled instantiation of
	// a previously accepted flex-offer.
	MsgScheduleNotify MsgType = "schedule_notify"
	// MsgMeasurementBatch: prosumer → BRP: a batch of metered values
	// (one message, one store group commit at the receiver).
	MsgMeasurementBatch MsgType = "measurement_batch"
	// MsgMeasurementReport: prosumer → BRP: metered consumption or
	// production.
	MsgMeasurementReport MsgType = "measurement_report"
	// MsgForecastRequest / MsgForecastReply: explicit forecast queries
	// between nodes.
	MsgForecastRequest MsgType = "forecast_request"
	MsgForecastReply   MsgType = "forecast_reply"
	// MsgPing / MsgPong: liveness.
	MsgPing MsgType = "ping"
	MsgPong MsgType = "pong"
	// MsgError: a transported failure.
	MsgError MsgType = "error"
)

// Envelope is the wire unit: a typed payload with routing metadata.
// A body of the message vocabulary below travels as the typed value
// given to NewEnvelope; Body holds JSON only for envelopes read off
// TCP, for other body types, and in the TCP frame itself.
type Envelope struct {
	Type MsgType         `json:"type"`
	From string          `json:"from"`
	To   string          `json:"to"`
	Seq  uint64          `json:"seq,omitempty"` // correlation id for replies
	Body json.RawMessage `json:"body,omitempty"`

	// body is the typed body when Body is nil; its type is a key of
	// bodyTypes.
	body any
}

// FlexOfferSubmit is the body of MsgFlexOfferSubmit.
type FlexOfferSubmit struct {
	Offer *flexoffer.FlexOffer `json:"offer"`
}

// FlexOfferDecision is the body of MsgFlexOfferDecision.
type FlexOfferDecision struct {
	OfferID flexoffer.ID `json:"offer_id"`
	Accept  bool         `json:"accept"`
	Reason  string       `json:"reason,omitempty"`
	// PremiumEUR is the negotiated flexibility premium per kWh.
	PremiumEUR float64 `json:"premium_eur,omitempty"`
}

// ScheduleNotify is the body of MsgScheduleNotify.
type ScheduleNotify struct {
	Schedules []*flexoffer.Schedule `json:"schedules"`
}

// MeasurementReport is the body of MsgMeasurementReport.
type MeasurementReport struct {
	Actor      string         `json:"actor"`
	EnergyType string         `json:"energy_type"`
	Slot       flexoffer.Time `json:"slot"`
	KWh        float64        `json:"kwh"`
}

// MeasurementBatch is the body of MsgMeasurementBatch.
type MeasurementBatch struct {
	Reports []MeasurementReport `json:"reports"`
}

// ForecastRequest is the body of MsgForecastRequest. An empty Actor
// queries the node-wide forecast source; a non-empty Actor addresses
// one maintained (actor, energy type) series in the node's forecast
// registry.
type ForecastRequest struct {
	Actor      string `json:"actor,omitempty"`
	EnergyType string `json:"energy_type"`
	Horizon    int    `json:"horizon"`
}

// ForecastReply is the body of MsgForecastReply.
type ForecastReply struct {
	EnergyType string         `json:"energy_type"`
	FirstSlot  flexoffer.Time `json:"first_slot"`
	Values     []float64      `json:"values"`
}

// ErrorBody is the body of MsgError.
type ErrorBody struct {
	Message string `json:"message"`
}

// bodyTypes holds, for each body type of the message vocabulary, a
// deep copy and a finiteness check. Envelopes carry these bodies by
// reference, and every copy handed to a receiver shares no memory with
// the sender — the isolation a JSON round trip gives. The check covers
// the one value json.Marshal rejects in these types, a NaN or infinite
// float: NewEnvelope marshals a body that fails it, so the error comes
// from NewEnvelope, before any transport sees the envelope.
var bodyTypes = map[reflect.Type]bodyType{
	reflect.TypeOf(FlexOfferSubmit{}): vocab(func(b FlexOfferSubmit) FlexOfferSubmit {
		if b.Offer != nil {
			b.Offer = b.Offer.Clone()
		}
		return b
	}, func(b FlexOfferSubmit) bool {
		if b.Offer == nil {
			return true
		}
		for _, s := range b.Offer.Profile {
			if !finite(s.EnergyMin) || !finite(s.EnergyMax) {
				return false
			}
		}
		return finite(b.Offer.CostPerKWh)
	}),
	reflect.TypeOf(ScheduleNotify{}): vocab(func(b ScheduleNotify) ScheduleNotify {
		if b.Schedules != nil {
			scheds := make([]*flexoffer.Schedule, len(b.Schedules))
			for i, s := range b.Schedules {
				if s != nil {
					cp := *s
					cp.Energy = slices.Clone(s.Energy)
					scheds[i] = &cp
				}
			}
			b.Schedules = scheds
		}
		return b
	}, func(b ScheduleNotify) bool {
		for _, s := range b.Schedules {
			if s != nil && !finite(s.Energy...) {
				return false
			}
		}
		return true
	}),
	reflect.TypeOf(MeasurementBatch{}): vocab(func(b MeasurementBatch) MeasurementBatch {
		b.Reports = slices.Clone(b.Reports)
		return b
	}, func(b MeasurementBatch) bool {
		for _, r := range b.Reports {
			if !finite(r.KWh) {
				return false
			}
		}
		return true
	}),
	reflect.TypeOf(ForecastReply{}): vocab(func(b ForecastReply) ForecastReply {
		b.Values = slices.Clone(b.Values)
		return b
	}, func(b ForecastReply) bool { return finite(b.Values...) }),
	// Bodies without pointers, slices or maps copy by assignment.
	reflect.TypeOf(FlexOfferDecision{}): vocab(same[FlexOfferDecision], func(b FlexOfferDecision) bool { return finite(b.PremiumEUR) }),
	reflect.TypeOf(MeasurementReport{}): vocab(same[MeasurementReport], func(b MeasurementReport) bool { return finite(b.KWh) }),
	reflect.TypeOf(ForecastRequest{}):   vocab(same[ForecastRequest], always[ForecastRequest]),
	reflect.TypeOf(ErrorBody{}):         vocab(same[ErrorBody], always[ErrorBody]),
}

type bodyType struct {
	clone  func(any) any
	finite func(any) bool
}

func vocab[T any](clone func(T) T, finite func(T) bool) bodyType {
	return bodyType{
		clone:  func(b any) any { return clone(b.(T)) },
		finite: func(b any) bool { return finite(b.(T)) },
	}
}

func same[T any](b T) T { return b }

func always[T any](T) bool { return true }

// finite reports whether no x is NaN or infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// NewEnvelope builds a typed envelope. A body of the message vocabulary
// is kept by reference and marshalled only if the envelope crosses TCP;
// any other body, and a vocabulary body with a non-finite float, is
// marshalled to JSON here, which reports the error.
func NewEnvelope(t MsgType, from, to string, body any) (Envelope, error) {
	if bt, ok := bodyTypes[reflect.TypeOf(body)]; ok && bt.finite(body) {
		return Envelope{Type: t, From: from, To: to, body: body}, nil
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return Envelope{}, fmt.Errorf("comm: marshal %s body: %w", t, err)
	}
	return Envelope{Type: t, From: from, To: to, Body: raw}, nil
}

// Decode stores the envelope body into out and verifies the type tag.
// A typed body decoded into a pointer to its own type is deep-copied;
// every other pairing goes through JSON, as on the wire.
func (e *Envelope) Decode(want MsgType, out any) error {
	if e.Type != want {
		return fmt.Errorf("comm: envelope is %s, want %s", e.Type, want)
	}
	if e.body != nil {
		dst := reflect.ValueOf(out)
		if dst.Kind() == reflect.Pointer && !dst.IsNil() && dst.Type().Elem() == reflect.TypeOf(e.body) {
			dst.Elem().Set(reflect.ValueOf(bodyTypes[dst.Type().Elem()].clone(e.body)))
			return nil
		}
	}
	raw, err := e.jsonBody()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("comm: decode %s body: %w", e.Type, err)
	}
	return nil
}

// jsonBody returns the body's JSON encoding, marshalling a typed body.
func (e *Envelope) jsonBody() (json.RawMessage, error) {
	if e.body == nil {
		return e.Body, nil
	}
	raw, err := json.Marshal(e.body)
	if err != nil {
		return nil, fmt.Errorf("comm: marshal %s body: %w", e.Type, err)
	}
	return raw, nil
}

// encoded returns the envelope as it goes on the wire, with a typed
// body marshalled into Body.
func (e Envelope) encoded() (Envelope, error) {
	raw, err := e.jsonBody()
	if err != nil {
		return Envelope{}, err
	}
	e.Body, e.body = raw, nil
	return e, nil
}

// detached returns the envelope with its typed body deep-copied, for a
// delivery that may outlive the sender's call.
func (e Envelope) detached() Envelope {
	if e.body != nil {
		e.body = bodyTypes[reflect.TypeOf(e.body)].clone(e.body)
	}
	return e
}

// ErrorEnvelope builds an error reply for a received envelope.
func ErrorEnvelope(inReplyTo *Envelope, from string, msg string) Envelope {
	return Envelope{Type: MsgError, From: from, To: inReplyTo.From, Seq: inReplyTo.Seq, body: ErrorBody{Message: msg}}
}
