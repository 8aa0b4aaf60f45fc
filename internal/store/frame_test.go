package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"testing"

	"mirabel/internal/flexoffer"
)

// canonicalState renders a store's full state order-independently.
func canonicalState(t *testing.T, s *Store) []string {
	t.Helper()
	img := s.dump()
	var out []string
	for _, part := range []any{img.Actors, img.EnergyTypes, img.MarketAreas, img.Measurements, img.Offers,
		img.Forecasts, img.Prices, img.Contracts, img.ModelParams} {
		raw, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			t.Fatal(err)
		}
		var strs []string
		for _, e := range elems {
			strs = append(strs, string(e))
		}
		sort.Strings(strs)
		out = append(out, strs...)
		out = append(out, "--")
	}
	return out
}

// legacyLine re-encodes one WAL line as the JSON record line logs held
// before the frame format, built from the old walRecord struct.
func legacyLine(t testing.TB, line []byte) []byte {
	t.Helper()
	table, op, data, ok := decodeWALLine(line)
	if !ok {
		t.Fatalf("undecodable wal line %q", line)
	}
	rec := walRecord{Table: table, Op: map[string]string{opPut: "put", opPrune: "prune"}[op], Data: data}
	rec.CRC = rec.checksum()
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// A WAL written in the JSON-line format replays to the same store state
// as the frame-format WAL of the same mutations, and so does a log that
// switches format part way (an old log appended to after an upgrade).
func TestLegacyJSONWALReplays(t *testing.T) {
	refDir := t.TempDir()
	ref, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	offer := &flexoffer.FlexOffer{ID: 7, Prosumer: "p1", EarliestStart: 4, LatestStart: 9, AssignBefore: 3,
		Profile: []flexoffer.Slice{{EnergyMin: 0.5, EnergyMax: 1.5}}}
	steps := []error{
		ref.PutActor(Actor{ID: "brp1", Role: RoleBRP}),
		ref.PutActor(Actor{ID: "p1", Role: RoleProsumer, Parent: "brp1"}),
		ref.PutEnergyType(EnergyType{ID: "demand"}),
		ref.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 2, KWh: 0.25}),
		ref.PutMeasurementsBatch([]Measurement{
			{Actor: "p1", EnergyType: "demand", Slot: 5, KWh: 1},
			{Actor: "p1", EnergyType: "demand", Slot: 6, KWh: 2},
		}),
		ref.PutOffer(OfferRecord{Offer: offer, Owner: "p1", State: OfferAccepted}),
	}
	_, err = ref.PruneMeasurements(4)
	steps = append(steps, err,
		ref.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7}))
	_, err = ref.UpdateOffer(7, func(r *OfferRecord) { r.State = OfferScheduled })
	steps = append(steps, err)
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := canonicalState(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	framed, err := os.ReadFile(walPath(refDir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(framed, []byte{'\n'})
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) < 8 || lines[0][0] == '{' {
		t.Fatalf("reference wal holds %d lines, first %q", len(lines), lines[0])
	}
	var legacy, mixed []byte
	for i, line := range lines {
		old := legacyLine(t, line)
		legacy = append(legacy, old...)
		if i < len(lines)/2 {
			mixed = append(mixed, old...)
		} else {
			mixed = append(mixed, line...)
		}
	}
	for name, wal := range map[string][]byte{"legacy": legacy, "mixed": mixed} {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if got := canonicalState(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s wal replayed to\n%v\nwant\n%v", name, got, want)
		}
		// New records land behind the old ones and replay with them.
		if err := s.PutActor(Actor{ID: "late"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if _, ok := s.GetActor("late"); !ok || s.Stats().Actors != 3 {
			t.Errorf("%s: reopen after append lost records: %+v", name, s.Stats())
		}
		s.Close()
	}
}

// The downgrade path: a snapshot taken with writers stopped leaves
// wal.log empty, and the state reopens from snapshot.json alone, whose
// format the frame change left as it was. A binary that predates the
// frame format can then open the directory.
func TestSnapshotEmptiesWALForDowngrade(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{
		s.PutActor(Actor{ID: "p1", Role: RoleProsumer}),
		s.PutMeasurementsBatch([]Measurement{{Actor: "p1", EnergyType: "demand", Slot: 5, KWh: 1}}),
		s.PutOffer(OfferRecord{Offer: &flexoffer.FlexOffer{ID: 3, Prosumer: "p1"}, Owner: "p1", State: OfferAccepted}),
		s.Snapshot(),
	} {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := canonicalState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath(dir)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal.log after snapshot: %v, err %v; want empty", fi, err)
	}
	snap, err := os.ReadFile(snapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	only := t.TempDir()
	if err := os.WriteFile(snapshotPath(only), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(only)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := canonicalState(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot alone reopened to\n%v\nwant\n%v", got, want)
	}
}

// The frame shrinks the record: a logged measurement is its JSON plus a
// short header, not a second JSON document around it.
func TestFrameSmallerThanJSONLine(t *testing.T) {
	m := Measurement{Actor: "h-12345", EnergyType: "demand", Slot: 1234, KWh: 0.375}
	line, err := encodeRecord(tMeasurement, opPut, m)
	if err != nil {
		t.Fatal(err)
	}
	if old := legacyLine(t, line); len(line) >= len(old) {
		t.Errorf("frame %d bytes, JSON line %d bytes", len(line), len(old))
	}
}

// walLineSeeds are the WAL and journal lines the tests write: frames,
// JSON record lines, the torn and corrupt tails of the crash tests, and
// ingest journal lines.
func walLineSeeds(f *testing.F) [][]byte {
	f.Helper()
	seeds := [][]byte{
		[]byte(`{"table":"actors","op":"put","da`),
		[]byte(`{"table":"actors","op":"put","data":{"id":"evil"},"crc":12345}` + "\n"),
		[]byte(`offer|0|d6a1b821|{"offer":{"ID":42,"Prosumer":"h-7","EarliestStart":10,"LatestStart":14,"AssignBefore":9,"Profile":[{"EnergyMin":0.5,"EnergyMax":1.25}],"CostPerKWh":0.03},"owner":"h-7","state":"accepted"}` + "\n"),
		[]byte(`meas|1|be383724|[{"actor":"h-7","energy_type":"demand","slot":11,"kwh":0.375}]` + "\n"),
		[]byte("measurements|+|0|{}\n"),
		[]byte("|||"),
		[]byte("\n"),
		{},
	}
	for _, rec := range [][3]any{
		{tActor, opPut, Actor{ID: "brp1", Role: RoleBRP}},
		{tMeasurement, opPut, Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7}},
		{tMeasurement, opPrune, pruneMark{Before: 4}},
		{tOffer, opPut, OfferRecord{Offer: &flexoffer.FlexOffer{ID: 1, Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2}}}, Owner: "p|1"}},
	} {
		line, err := encodeRecord(rec[0].(string), rec[1].(string), rec[2])
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, line, line[:len(line)/2], legacyLine(f, line))
	}
	return seeds
}

// FuzzWALLine: decoding any line never panics, and a line is accepted
// exactly when its CRC verifies — for frames (including ingest journal
// lines) and for JSON record lines alike. An accepted frame re-encodes
// to the same bytes.
func FuzzWALLine(f *testing.F) {
	for _, s := range walLineSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		table, _, data, ok := decodeWALLine(line)
		if len(line) > 0 && line[0] == '{' {
			var rec walRecord
			want := json.Unmarshal(line, &rec) == nil && rec.checksum() == rec.CRC
			if ok != want {
				t.Fatalf("JSON line %q: accepted %v, CRC verifies %v", line, ok, want)
			}
			return
		}
		body := bytes.TrimSuffix(line, []byte{'\n'})
		want := false
		if k := bytes.IndexByte(body, '|'); k >= 0 && len(body) >= k+4 && body[k+2] == '|' {
			if c := bytes.IndexByte(body[k+3:], '|'); c >= 0 {
				covered := append(append([]byte(nil), body[:k+3]...), body[k+3+c+1:]...)
				want = string(body[k+3:k+3+c]) == fmt.Sprintf("%x", crc32.ChecksumIEEE(covered))
			}
		}
		if ok != want {
			t.Fatalf("frame %q: accepted %v, CRC verifies %v", line, ok, want)
		}
		if !ok {
			return
		}
		kind, flag, payload, _ := ParseFrame(line)
		if string(kind) != table || !bytes.Equal(payload, data) {
			t.Fatalf("frame %q: wal decode (%q, %q) disagrees with ParseFrame (%q, %q)", line, table, data, kind, payload)
		}
		if again := AppendFrame(nil, string(kind), flag, payload); !bytes.Equal(again, append(body, '\n')) {
			t.Fatalf("frame %q re-encodes to %q", line, again)
		}
	})
}

// A corrupt byte anywhere in a frame — kind, flag, checksum or payload —
// is rejected, and recovery keeps the intact prefix before it.
func TestCorruptFrameStopsReplay(t *testing.T) {
	line, err := encodeRecord(tActor, opPut, Actor{ID: "evil"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(line)-1; i++ {
		bad := append([]byte(nil), line...)
		bad[i] ^= 0x01
		if _, _, _, ok := decodeWALLine(bad); ok {
			t.Errorf("flipped byte %d accepted: %q", i, bad)
		}
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutActor(Actor{ID: "good"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	bad := append([]byte(nil), line...)
	bad[len(bad)-3] ^= 0x01
	f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bad)
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.GetActor("evil"); ok {
		t.Error("corrupt frame applied")
	}
	if _, ok := s2.GetActor("good"); !ok {
		t.Error("good record lost")
	}
}
