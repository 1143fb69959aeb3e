package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cep"
	"repro/internal/ontology/ssn"
)

// TestPayloadAsReadsLoggedPayloads: typed payloads published on a
// durable broker come back from the log as stored JSON, and PayloadAs
// decodes them equal to the Go values that were published.
func TestPayloadAsReadsLoggedPayloads(t *testing.T) {
	b, l, _ := durableBroker(t, t.TempDir())
	defer l.Close()
	at := time.Date(2015, 11, 20, 6, 0, 0, 0, time.UTC)
	rec := ssn.Record{
		ID: "obs:o1", Sensor: "obs:s1", Property: "obs:Rainfall", Feature: "obs:mangaung",
		Value: 3.1, Unit: "obs:mm", Time: at, Quality: 0.9,
	}
	ev := cep.Event{Type: "RainfallDeficit", Time: at, Value: -0.7, Confidence: 0.8, Key: "mangaung", Attrs: map[string]string{"rule": "spi"}}
	for _, m := range []Message{
		{Topic: "obs/mangaung/Rainfall", Time: at, Payload: rec},
		{Topic: "event/mangaung/RainfallDeficit", Time: at, Payload: ev},
	} {
		if _, err := b.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	var got []Message
	if _, err := b.ReplayFrom(1, "#", func(m Message) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d messages, want 2", len(got))
	}
	if _, ok := got[0].Payload.(json.RawMessage); !ok {
		t.Fatalf("replayed payload is %T, want json.RawMessage", got[0].Payload)
	}
	gotRec, err := PayloadAs[ssn.Record](got[0])
	if err != nil || !reflect.DeepEqual(gotRec, rec) {
		t.Errorf("PayloadAs[ssn.Record] = %+v, %v; want %+v", gotRec, err, rec)
	}
	gotEv, err := PayloadAs[cep.Event](got[1])
	if err != nil || !reflect.DeepEqual(gotEv, ev) {
		t.Errorf("PayloadAs[cep.Event] = %+v, %v; want %+v", gotEv, err, ev)
	}
}

// TestPayloadAsFastPathAllocsNothing: a payload that already is a T is
// handed back by type assertion, with no allocation.
func TestPayloadAsFastPathAllocsNothing(t *testing.T) {
	m := Message{Topic: "obs/mangaung/Rainfall", Payload: ssn.Record{ID: "obs:o1", Value: 2.5}}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		rec, err := PayloadAs[ssn.Record](m)
		if err != nil {
			t.Fatal(err)
		}
		sink += rec.Value
	})
	if allocs != 0 {
		t.Errorf("PayloadAs fast path allocates %.1f times, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("fast path returned the zero value")
	}
}

// TestPayloadAsMalformed: JSON that does not decode as a T is an error
// naming the message's topic and offset, whether the bytes are not JSON
// at all or JSON of the wrong shape.
func TestPayloadAsMalformed(t *testing.T) {
	for _, payload := range []any{
		json.RawMessage(`{"Value":`),
		json.RawMessage(`7`),
		"not a record",
	} {
		m := Message{Offset: 42, Topic: "obs/mangaung/Rainfall", Payload: payload}
		_, err := PayloadAs[ssn.Record](m)
		if err == nil {
			t.Errorf("PayloadAs(%#v) succeeded, want an error", payload)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "obs/mangaung/Rainfall") || !strings.Contains(msg, "42") {
			t.Errorf("error %q does not name the topic and offset", msg)
		}
	}
}

// TestRawPayloadIsTheEncodeCache: a valid json.RawMessage published on a
// durable broker is logged and handed to subscribers as the very bytes
// sent — no copy, no re-marshal (whitespace and all).
func TestRawPayloadIsTheEncodeCache(t *testing.T) {
	b, l, _ := durableBroker(t, t.TempDir())
	defer l.Close()
	sub, err := b.Subscribe("obs/#", 4, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	raw := json.RawMessage(`{"z": 1, "a": 2.50}`)
	if _, err := b.Publish(Message{Topic: "obs/d1/Rainfall", Payload: raw}); err != nil {
		t.Fatal(err)
	}
	msgs := sub.Poll(0)
	if len(msgs) != 1 {
		t.Fatalf("polled %d messages, want 1", len(msgs))
	}
	if pj := msgs[0].PayloadJSON(); &pj[0] != &raw[0] {
		t.Errorf("PayloadJSON %s is a copy, want the published slice", pj)
	}
	recs, _, err := l.Read(1, 1)
	if err != nil || len(recs) != 1 || string(recs[0].Payload) != string(raw) {
		t.Fatalf("logged %v (%v), want payload %s", recs, err, raw)
	}
}
