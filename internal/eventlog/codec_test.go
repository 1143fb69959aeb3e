package eventlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testRecords(n, withHeaders int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Topic:   fmt.Sprintf("obs/d%d/Rainfall", i%3),
			Time:    time.Date(2015, 1, 1, 0, 0, i, 0, time.UTC),
			Payload: json.RawMessage(fmt.Sprintf(`{"value":%d}`, i)),
		}
		if i%withHeaders == 0 {
			recs[i].Headers = map[string]string{"k": fmt.Sprint(i), "unit": "mm"}
		}
	}
	return recs
}

// sameRecord compares every field a replay consumer can observe.
func sameRecord(got, want Record) bool {
	if got.Offset != want.Offset || got.Topic != want.Topic || !got.Time.Equal(want.Time) {
		return false
	}
	if string(got.Payload) != string(want.Payload) {
		return false
	}
	if len(got.Headers) != len(want.Headers) {
		return false
	}
	for k, v := range want.Headers {
		if got.Headers[k] != v {
			return false
		}
	}
	return true
}

// TestEncodeDecodeRoundTrip drives the v2 codec over randomized records
// (zones, headers, empty payloads) and asserts field-exact round trips.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("", 2*3600),
		time.FixedZone("", -9*3600-30*60),
	}
	var dec decoder
	for i := 0; i < 500; i++ {
		rec := Record{
			Offset: rng.Uint64(),
			Topic:  fmt.Sprintf("t/%d/x", rng.Intn(7)),
			Time:   time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))]),
		}
		if rng.Intn(3) > 0 {
			rec.Payload = json.RawMessage(fmt.Sprintf(`{"v":%d}`, rng.Intn(1000)))
		}
		if rng.Intn(3) == 0 {
			rec.Headers = map[string]string{}
			for h := 0; h < rng.Intn(4)+1; h++ {
				rec.Headers[fmt.Sprintf("h%d", h)] = fmt.Sprint(rng.Intn(100))
			}
		}
		body := appendRecordV2(nil, &rec)
		var got Record
		if err := dec.decodeRecordV2(body, &got); err != nil {
			t.Fatalf("round trip %d: decode: %v", i, err)
		}
		if !sameRecord(got, rec) {
			t.Fatalf("round trip %d: got %+v, want %+v", i, got, rec)
		}
		// Zone offset fidelity goes beyond Time.Equal.
		_, wantOff := rec.Time.Zone()
		_, gotOff := got.Time.Zone()
		if wantOff != gotOff {
			t.Fatalf("round trip %d: zone offset %d, want %d", i, gotOff, wantOff)
		}
	}
}

// TestDecodeSharesHeaderMaps: records with byte-identical header sections
// get one map per decoder, up to sharedHeaders distinct sections; the
// sections past the cap still decode, into maps of their own.
func TestDecodeSharesHeaderMaps(t *testing.T) {
	same := func(a, b map[string]string) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	var dec decoder
	decode := func(headers map[string]string) map[string]string {
		t.Helper()
		rec := Record{Offset: 1, Topic: "obs/d1/Rainfall", Payload: json.RawMessage(`1`), Headers: headers}
		var got Record
		if err := dec.decodeRecordV2(appendRecordV2(nil, &rec), &got); err != nil {
			t.Fatal(err)
		}
		if !sameRecord(got, rec) {
			t.Fatalf("got %+v, want %+v", got, rec)
		}
		return got.Headers
	}
	mm := decode(map[string]string{"unit": "mm"})
	if !same(mm, decode(map[string]string{"unit": "mm"})) {
		t.Fatal("identical headers decoded into two maps")
	}
	if same(mm, decode(map[string]string{"unit": "degC"})) {
		t.Fatal("different headers share a map")
	}
	if decode(nil) != nil {
		t.Fatal("a record without headers decoded a map")
	}
	for i := 0; i < 2*sharedHeaders; i++ {
		decode(map[string]string{"id": fmt.Sprint(i)})
	}
	if len(dec.headers) != sharedHeaders {
		t.Fatalf("decoder shares %d header sections, cap %d", len(dec.headers), sharedHeaders)
	}
	past := map[string]string{"id": fmt.Sprint(2 * sharedHeaders)}
	if same(decode(past), decode(past)) {
		t.Fatal("a section past the cap is shared")
	}
	if !same(mm, decode(map[string]string{"unit": "mm"})) {
		t.Fatal("a section shared before the cap stopped being shared")
	}
}

// TestDecodeV2Corrupt: a decoder fed garbage must return an error, never
// panic, over-allocate, or return trash silently.
func TestDecodeV2Corrupt(t *testing.T) {
	rec := Record{
		Offset:  7,
		Topic:   "obs/d1/Rainfall",
		Time:    time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
		Payload: json.RawMessage(`{"v":1}`),
		Headers: map[string]string{"unit": "mm"},
	}
	valid := appendRecordV2(nil, &rec)
	var dec decoder
	var out Record
	// Every truncation of a valid body must fail cleanly.
	for n := 0; n < len(valid); n++ {
		if err := dec.decodeRecordV2(valid[:n], &out); err == nil {
			t.Fatalf("truncated body of %d bytes decoded without error", n)
		}
	}
	// Trailing garbage is rejected too.
	if err := dec.decodeRecordV2(append(append([]byte(nil), valid...), 0xFF), &out); err == nil {
		t.Fatal("body with trailing bytes decoded without error")
	}
	// A nanosecond field out of range is rejected.
	bad := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bad[16:20], 2e9)
	if err := dec.decodeRecordV2(bad, &out); err == nil {
		t.Fatal("out-of-range nanoseconds accepted")
	}
}

// FuzzDecodeV2 hammers the binary decoder with arbitrary bytes: any
// input must either decode or fail with an error — never panic.
func FuzzDecodeV2(f *testing.F) {
	for _, rec := range testRecords(5, 2) {
		f.Add(appendRecordV2(nil, &rec))
	}
	f.Add([]byte{})
	f.Add(make([]byte, recordV2Fixed))
	f.Fuzz(func(t *testing.T, body []byte) {
		var dec decoder
		var rec Record
		if err := dec.decodeRecordV2(body, &rec); err != nil {
			return
		}
		// A successful decode must round-trip byte-identically: encoding
		// is canonical except for header ordering, so re-encode and
		// re-decode instead of comparing bytes.
		re := appendRecordV2(nil, &rec)
		var rec2 Record
		if err := dec.decodeRecordV2(re, &rec2); err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if !sameRecord(rec2, rec) {
			t.Fatalf("re-encode round trip drifted: %+v vs %+v", rec2, rec)
		}
	})
}
