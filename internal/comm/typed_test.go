package comm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mirabel/internal/flexoffer"
)

// busVersusWire checks, for random bodies of type T, that a receiver on
// the Bus decodes exactly what a receiver decodes after the envelope
// crossed a TCP frame.
func busVersusWire[T any](t *testing.T, typ MsgType) {
	t.Helper()
	bus := NewBus()
	var got T
	bus.Register("rx", func(ctx context.Context, env Envelope) (*Envelope, error) {
		got = *new(T)
		return nil, env.Decode(typ, &got)
	})
	f := func(body T) bool {
		env, err := NewEnvelope(typ, "tx", "rx", body)
		if err != nil {
			return false
		}
		if _, err := bus.Request(context.Background(), "rx", env); err != nil {
			t.Log(err)
			return false
		}
		var buf writableBuffer
		if err := writeFrame(&buf, &env); err != nil {
			t.Log(err)
			return false
		}
		wire, err := readFrame(&buf)
		if err != nil {
			return false
		}
		var want T
		if err := wire.Decode(typ, &want); err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("bus %+v\nwire %+v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s: %v", typ, err)
	}
}

// Property: for every body type of the vocabulary, Decode after a Bus
// exchange equals Decode after a JSON/TCP round trip — nil pointers,
// nil versus empty slices and all.
func TestPropertyBusDecodeMatchesWire(t *testing.T) {
	busVersusWire[FlexOfferSubmit](t, MsgFlexOfferSubmit)
	busVersusWire[FlexOfferDecision](t, MsgFlexOfferDecision)
	busVersusWire[ScheduleNotify](t, MsgScheduleNotify)
	busVersusWire[MeasurementReport](t, MsgMeasurementReport)
	busVersusWire[MeasurementBatch](t, MsgMeasurementBatch)
	busVersusWire[ForecastRequest](t, MsgForecastRequest)
	busVersusWire[ForecastReply](t, MsgForecastReply)
	busVersusWire[ErrorBody](t, MsgError)
}

// A body decoded into a different type than the one sent goes through
// JSON, exactly as it would off the wire.
func TestDecodeIntoOtherTypeUsesJSON(t *testing.T) {
	env, err := NewEnvelope(MsgMeasurementReport, "a", "b", MeasurementReport{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := env.Decode(MsgMeasurementReport, &generic); err != nil {
		t.Fatal(err)
	}
	if generic["actor"] != "p1" || generic["kwh"] != 1.5 {
		t.Errorf("generic decode = %v", generic)
	}
}

// isolationNode stores every decoded body it receives, as a BRP keeps
// offers and a prosumer keeps its schedules.
type isolationNode struct {
	mu     sync.Mutex
	offer  *flexoffer.FlexOffer
	meas   []MeasurementReport
	scheds []*flexoffer.Schedule
	got    chan struct{}
}

func newIsolationNode(bus *Bus, name string) *isolationNode {
	n := &isolationNode{got: make(chan struct{}, 8)}
	mux := NewMux()
	mux.Handle(MsgFlexOfferSubmit, func(ctx context.Context, env Envelope) (*Envelope, error) {
		var body FlexOfferSubmit
		if err := env.Decode(MsgFlexOfferSubmit, &body); err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.offer = body.Offer
		n.mu.Unlock()
		reply, err := NewEnvelope(MsgFlexOfferDecision, name, env.From, FlexOfferDecision{OfferID: body.Offer.ID, Accept: true})
		return &reply, err
	})
	mux.Handle(MsgMeasurementBatch, func(ctx context.Context, env Envelope) (*Envelope, error) {
		var body MeasurementBatch
		if err := env.Decode(MsgMeasurementBatch, &body); err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.meas = body.Reports
		n.mu.Unlock()
		n.got <- struct{}{}
		return nil, nil
	})
	mux.Handle(MsgScheduleNotify, func(ctx context.Context, env Envelope) (*Envelope, error) {
		var body ScheduleNotify
		if err := env.Decode(MsgScheduleNotify, &body); err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.scheds = body.Schedules
		n.mu.Unlock()
		n.got <- struct{}{}
		return nil, nil
	})
	bus.Register(name, mux.Serve)
	return n
}

func (n *isolationNode) wait(t *testing.T) {
	t.Helper()
	select {
	case <-n.got:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived")
	}
}

// Isolation: on the Bus a receiver neither sees the sender's later
// writes nor can write into the sender's memory — for the offer of a
// request, and for the measurement slice and schedules of fire-and-forget
// sends whose handler runs after the call returned.
func TestBusBodiesIsolated(t *testing.T) {
	ctx := context.Background()
	bus := NewBus()
	rx := newIsolationNode(bus, "brp")
	c := NewClient("p1", bus)

	offer := &flexoffer.FlexOffer{ID: 1, Prosumer: "p1", EarliestStart: 4, LatestStart: 8,
		Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2}}}
	if _, err := c.SubmitOffer(ctx, "brp", offer); err != nil {
		t.Fatal(err)
	}
	offer.Profile[0].EnergyMax = 99
	offer.LatestStart = 99
	rx.mu.Lock()
	if rx.offer.Profile[0].EnergyMax != 2 || rx.offer.LatestStart != 8 {
		t.Errorf("receiver saw the sender's write: %+v", rx.offer)
	}
	rx.offer.Profile[0].EnergyMin = -5
	rx.mu.Unlock()
	if offer.Profile[0].EnergyMin != 1 {
		t.Error("receiver wrote into the sender's offer")
	}

	reports := []MeasurementReport{{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 0.5}}
	if err := c.ReportMeasurements(ctx, "brp", reports); err != nil {
		t.Fatal(err)
	}
	reports[0].KWh = 99
	rx.wait(t)
	rx.mu.Lock()
	if rx.meas[0].KWh != 0.5 {
		t.Errorf("receiver saw the sender's write: %+v", rx.meas)
	}
	rx.meas[0].Slot = 77
	rx.mu.Unlock()
	if reports[0].Slot != 3 {
		t.Error("receiver wrote into the sender's measurement slice")
	}

	scheds := []*flexoffer.Schedule{{OfferID: 1, Start: 5, Energy: []float64{1.5}}}
	if err := c.NotifySchedules(ctx, "brp", scheds); err != nil {
		t.Fatal(err)
	}
	scheds[0].Energy[0] = 99
	scheds[0].Start = 99
	scheds[0] = nil
	rx.wait(t)
	rx.mu.Lock()
	if len(rx.scheds) != 1 || rx.scheds[0] == nil || rx.scheds[0].Start != 5 || rx.scheds[0].Energy[0] != 1.5 {
		t.Errorf("receiver saw the sender's write: %+v", rx.scheds)
	}
	rx.mu.Unlock()
}

// The wire format is unchanged: a frame of an envelope from NewEnvelope
// is byte-identical to one whose Body was marshalled up front.
func TestWriteFrameBytesUnchanged(t *testing.T) {
	bodies := []struct {
		typ  MsgType
		body any
	}{
		{MsgFlexOfferSubmit, FlexOfferSubmit{Offer: &flexoffer.FlexOffer{ID: 9, Prosumer: "p<&>1",
			EarliestStart: 4, LatestStart: 8, Profile: []flexoffer.Slice{{EnergyMin: 0.1, EnergyMax: 2e-7}}}}},
		{MsgScheduleNotify, ScheduleNotify{Schedules: []*flexoffer.Schedule{{OfferID: 9, Start: 5, Energy: []float64{1.25}}, nil}}},
		{MsgMeasurementBatch, MeasurementBatch{Reports: []MeasurementReport{{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 1e21}}}},
		{MsgMeasurementBatch, MeasurementBatch{Reports: []MeasurementReport{}}},
		{MsgFlexOfferDecision, FlexOfferDecision{OfferID: 9, Reason: "pending "}},
		{MsgForecastReply, ForecastReply{EnergyType: "res", Values: nil}},
		{MsgPing, nil},
	}
	for _, b := range bodies {
		env, err := NewEnvelope(b.typ, "p1", "brp1", b.body)
		if err != nil {
			t.Fatal(err)
		}
		env.Seq = 17
		var got writableBuffer
		if err := writeFrame(&got, &env); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(b.body)
		if err != nil {
			t.Fatal(err)
		}
		var payload bytes.Buffer
		if err := json.NewEncoder(&payload).Encode(Envelope{Type: b.typ, From: "p1", To: "brp1", Seq: 17, Body: raw}); err != nil {
			t.Fatal(err)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(payload.Len()))
		want = append(want, payload.Bytes()...)
		if !bytes.Equal(got.data, want) {
			t.Errorf("%s frame changed:\n got %q\nwant %q", b.typ, got.data, want)
		}
	}

	// One golden frame pins the exact bytes.
	env, _ := NewEnvelope(MsgFlexOfferDecision, "brp1", "p1", FlexOfferDecision{OfferID: 3, Accept: true, PremiumEUR: 0.5})
	var got writableBuffer
	if err := writeFrame(&got, &env); err != nil {
		t.Fatal(err)
	}
	const golden = `{"type":"flex_offer_decision","from":"brp1","to":"p1","body":{"offer_id":3,"accept":true,"premium_eur":0.5}}` + "\n"
	if string(got.data[4:]) != golden || binary.BigEndian.Uint32(got.data) != uint32(len(golden)) {
		t.Errorf("frame = %q, want %q", got.data, golden)
	}
}

// NewEnvelope rejects a NaN or infinite float in any vocabulary body
// with json.Marshal's own error, so neither transport ever carries one.
func TestNewEnvelopeRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bodies := []struct {
		typ  MsgType
		body any
	}{
		{MsgFlexOfferSubmit, FlexOfferSubmit{Offer: &flexoffer.FlexOffer{ID: 1, Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: inf}}}}},
		{MsgFlexOfferSubmit, FlexOfferSubmit{Offer: &flexoffer.FlexOffer{ID: 1, CostPerKWh: nan}}},
		{MsgFlexOfferDecision, FlexOfferDecision{OfferID: 1, PremiumEUR: -inf}},
		{MsgScheduleNotify, ScheduleNotify{Schedules: []*flexoffer.Schedule{nil, {OfferID: 1, Energy: []float64{1, nan}}}}},
		{MsgMeasurementReport, MeasurementReport{Actor: "p1", KWh: nan}},
		{MsgMeasurementBatch, MeasurementBatch{Reports: []MeasurementReport{{KWh: 1}, {KWh: inf}}}},
		{MsgForecastReply, ForecastReply{Values: []float64{nan}}},
	}
	for _, b := range bodies {
		_, err := NewEnvelope(b.typ, "p1", "brp1", b.body)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Errorf("%s %+v: err = %v, want a json.UnsupportedValueError", b.typ, b.body, err)
		}
	}
}

// A typed body JSON rejects at the TCP boundary fails only its own
// call: the pooled connection, and a request pipelined on it, survive.
// On the server such a reply turns into an error reply. NewEnvelope
// never builds such an envelope; these are built by hand.
func TestTCPEncodeFailureFailsOnlyItsCall(t *testing.T) {
	release := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, env Envelope) (*Envelope, error) {
		switch env.Type {
		case MsgPing:
			<-release
			return nil, nil
		case MsgForecastRequest:
			return &Envelope{Type: MsgForecastReply, From: "srv", To: env.From, body: ForecastReply{Values: []float64{math.NaN()}}}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient("p1", WithPoolSize(1))
	defer client.Close()
	client.SetRoute("srv", srv.Addr())
	ctx := context.Background()

	pinged := make(chan error, 1)
	go func() {
		env, _ := NewEnvelope(MsgPing, "p1", "srv", nil)
		_, err := client.Request(ctx, "srv", env)
		pinged <- err
	}()
	for client.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	bad := Envelope{Type: MsgMeasurementReport, body: MeasurementReport{Actor: "p1", KWh: math.NaN()}}
	if err := client.Send(ctx, "srv", bad); err == nil || errors.Is(err, ErrNotSent) {
		t.Errorf("Send of a NaN body: err = %v, want a marshal error without ErrNotSent", err)
	}
	if _, err := client.Request(ctx, "srv", bad); err == nil || errors.Is(err, ErrNotSent) {
		t.Errorf("Request of a NaN body: err = %v, want a marshal error without ErrNotSent", err)
	}
	req, _ := NewEnvelope(MsgForecastRequest, "p1", "srv", ForecastRequest{EnergyType: "res", Horizon: 1})
	if _, err := client.Request(ctx, "srv", req); err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Errorf("reply with a NaN body: err = %v, want a remote error", err)
	}

	close(release)
	if err := <-pinged; err != nil {
		t.Errorf("pipelined request failed: %v", err)
	}
	if st := client.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1: the connection must survive", st.Dials)
	}
}
