package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cutSeg splits off the next '/'-separated segment of s without
// allocating: seg is the leading segment, rest is everything after the
// first '/', and more reports whether rest holds further segments.
// Iterating cutSeg until !more yields exactly strings.Split(s, "/").
func cutSeg(s string) (seg, rest string, more bool) {
	return strings.Cut(s, "/")
}

// Message is the envelope circulating on the application abstraction
// layer.
type Message struct {
	// Offset is the broker-assigned monotonic sequence number (1-based,
	// assigned on Publish; 0 means the message never passed through a
	// broker). With an event log attached the offset is durable across
	// restarts and doubles as the replay/resume cursor — the gateway's
	// SSE id: field carries it.
	Offset uint64
	// Topic is a '/'-separated hierarchical subject, e.g.
	// "obs/mangaung/Rainfall" or "event/xhariep/DroughtWarning".
	Topic string
	// Time is the event time of the payload.
	Time time.Time
	// Payload carries the body in one of two forms: the typed Go value
	// an in-process publisher handed over (ssn.Record, cep.Event, ...),
	// or JSON as a json.RawMessage. Remote publishes (the gateway's
	// POST /publish) carry the sender's bytes as sent, and messages read
	// back from the event log (retained after a restart, ReplayFrom)
	// carry the stored JSON; both are shared and read-only. Consumers
	// read either form with PayloadAs.
	Payload any
	// Headers carries string metadata. Messages read back from the event
	// log share one read-only map among records with identical headers.
	Headers map[string]string

	// cache, when non-nil, carries lazily built wire encodings shared by
	// every copy of this message: the broker allocates one cache per
	// durable publish before fan-out, so the payload JSON is marshaled
	// once for the event log and reused by every subscriber that needs
	// wire bytes (the gateway's SSE frames), instead of once per
	// subscriber.
	cache *msgCache
}

// msgCache holds the lazily built wire encodings of one published
// message. All copies of the message share the pointer; the mutex makes
// concurrent renders (many SSE pumps draining the same publish) build
// each encoding exactly once. Because the pointer is shared by every
// copy, only this file's once-only builders (newMsgCache, PayloadJSON,
// SharedFrame — all under mu after construction) may write its fields.
type msgCache struct {
	mu sync.Mutex
	// payload is the payload marshaled as JSON.
	payload []byte
	// frame is an opaque caller-rendered frame (the gateway stores the
	// complete SSE event bytes here).
	frame []byte
	// scratch gives short scalar encodings a home inside the cache's own
	// allocation: the broker encodes into scratch[:0], so a typical
	// sensor publish (a float) costs one allocation — the cache — not a
	// cache plus a payload slice. 24 bytes covers every float64 and
	// int64 rendering.
	scratch [24]byte
}

// newMsgCache builds the shared encode cache for one durable publish.
// A json.RawMessage payload holding valid JSON (a remote publish) is the
// encode cache as it is — no copy, no marshal — so the log and every SSE
// frame carry the sender's bytes. Any other payload is rendered into the
// cache's own scratch allocation: a scalar payload costs one allocation
// (the cache), not two. In-process publishers can hand over any bytes,
// so an invalid json.RawMessage takes the marshal path and its string
// fallback.
func newMsgCache(payload any) *msgCache {
	c := &msgCache{}
	if raw, ok := validRaw(payload); ok {
		c.payload = raw
	} else {
		c.payload = appendPayload(c.scratch[:0], payload)
	}
	return c
}

// validRaw returns payload's bytes when it is a json.RawMessage holding
// valid JSON — the form carried as it is.
func validRaw(payload any) (json.RawMessage, bool) {
	raw, ok := payload.(json.RawMessage)
	return raw, ok && json.Valid(raw)
}

// marshalPayload renders a payload as JSON. A valid json.RawMessage is
// returned as it is (shared, like PayloadJSON's result). Payloads that do
// not marshal (channels, funcs, invalid raw JSON — nothing the system
// publishes) degrade to their string rendering rather than failing the
// caller. Scalar payloads — the bulk of sensor traffic — take a
// reflection-free path that emits byte-identical output to
// encoding/json, which matters because the durable publish path marshals
// every payload before the WAL append.
func marshalPayload(payload any) []byte {
	if raw, ok := validRaw(payload); ok {
		return raw
	}
	return appendPayload(nil, payload)
}

// PayloadAs reads m's payload as a T. A payload that already is a T (an
// in-process typed publish) is returned as it is, with no allocation;
// any other form — JSON carried from a remote publish or the event log,
// or a different Go type — is decoded from PayloadJSON with
// encoding/json. A payload that does not decode as a T is an error
// naming the message's topic and offset. It is a function rather than a
// Message method because Go methods cannot take type parameters.
func PayloadAs[T any](m Message) (T, error) {
	if v, ok := m.Payload.(T); ok {
		return v, nil
	}
	var v T
	if err := json.Unmarshal(m.PayloadJSON(), &v); err != nil {
		return v, fmt.Errorf("core: payload of %s at offset %d as %T: %w", m.Topic, m.Offset, v, err)
	}
	return v, nil
}

// appendPayload appends the JSON rendering of payload to dst (see
// marshalPayload). Scalar fast paths reuse dst's capacity — the broker
// passes a scratch buffer living inside the message's encode cache —
// while the reflection fallback appends whatever encoding/json built.
func appendPayload(dst []byte, payload any) []byte {
	switch v := payload.(type) {
	case nil:
		return append(dst, "null"...)
	case bool:
		if v {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case int:
		return strconv.AppendInt(dst, int64(v), 10)
	case int64:
		return strconv.AppendInt(dst, v, 10)
	case uint32:
		return strconv.AppendUint(dst, uint64(v), 10)
	case float64:
		if b, ok := appendJSONFloat(dst, v); ok {
			return b
		}
	case string:
		if b, ok := appendJSONString(dst, v); ok {
			return b
		}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(payload))
	}
	return append(dst, b...)
}

// appendJSONFloat appends f exactly as encoding/json renders a float64
// (shortest form, 'e' only outside [1e-6, 1e21), exponent digits
// unpadded). NaN and infinities report !ok — encoding/json rejects
// them, so they take the fallback path and degrade to a string.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendJSONString appends s as a JSON string when no character needs
// escaping (encoding/json escapes control characters, '"', '\\', and —
// for HTML safety — '<', '>', '&'; multi-byte UTF-8 passes through
// unescaped unless invalid). Anything suspicious reports !ok and falls
// back to encoding/json.
func appendJSONString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// PayloadJSON returns the message payload marshaled as JSON, building it
// at most once per published message (copies share the encoding). The
// returned slice is shared — callers must not modify it.
func (m Message) PayloadJSON() []byte {
	if m.cache == nil {
		return marshalPayload(m.Payload)
	}
	m.cache.mu.Lock()
	defer m.cache.mu.Unlock()
	if m.cache.payload == nil {
		m.cache.payload = marshalPayload(m.Payload)
	}
	return m.cache.payload
}

// SharedFrame returns the message's cached wire frame, rendering it with
// render (which receives the payload JSON) at most once per published
// message — every subscriber after the first gets the prebuilt bytes.
// Messages without a cache (in-memory publishes, hand-built messages)
// render per call. The returned slice is shared — callers must not
// modify it.
func (m Message) SharedFrame(render func(payloadJSON []byte) []byte) []byte {
	if m.cache == nil {
		return render(marshalPayload(m.Payload))
	}
	c := m.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frame == nil {
		if c.payload == nil {
			c.payload = marshalPayload(m.Payload)
		}
		// The render callback runs under c.mu on purpose: the mutex is
		// what makes the frame build once when many SSE pumps race to
		// drain the same publish, and renderers are pure encoders (the
		// gateway's builds bytes, no I/O, no locks).
		c.frame = render(c.payload) //dewsvet:lockhold-ok once-only render; renderers are pure encoders
	}
	return c.frame
}

// Validate checks envelope well-formedness. It iterates topic segments
// in place (no strings.Split) so validating on the publish hot path
// allocates nothing.
func (m Message) Validate() error {
	if m.Topic == "" {
		return fmt.Errorf("core: message without topic")
	}
	for rest, more := m.Topic, true; more; {
		var seg string
		seg, rest, more = cutSeg(rest)
		if seg == "" {
			return fmt.Errorf("core: topic %q has empty segment", m.Topic)
		}
		if seg == "+" || seg == "#" {
			return fmt.Errorf("core: topic %q contains wildcard; wildcards are for subscriptions", m.Topic)
		}
	}
	return nil
}

// TopicMatch reports whether a concrete topic matches a subscription
// pattern. Patterns use MQTT-style wildcards: '+' matches exactly one
// segment, '#' (only as the final segment) matches any remainder
// including none. Both strings are walked segment-by-segment in place —
// matching allocates nothing.
func TopicMatch(pattern, topic string) bool {
	pRest, tRest := pattern, topic
	pMore, tMore := true, true
	for pMore {
		var p string
		p, pRest, pMore = cutSeg(pRest)
		if p == "#" {
			return !pMore // '#' matches any remainder, but only as the final segment
		}
		if !tMore {
			return false // topic exhausted with pattern segments left
		}
		var t string
		t, tRest, tMore = cutSeg(tRest)
		if p != "+" && p != t {
			return false
		}
	}
	return !tMore // both exhausted together
}

// ValidatePattern checks a subscription pattern.
func ValidatePattern(pattern string) error {
	if pattern == "" {
		return fmt.Errorf("core: empty subscription pattern")
	}
	for rest, more := pattern, true; more; {
		var seg string
		seg, rest, more = cutSeg(rest)
		switch {
		case seg == "":
			return fmt.Errorf("core: pattern %q has empty segment", pattern)
		case seg == "#" && more:
			return fmt.Errorf("core: pattern %q: '#' only allowed at the end", pattern)
		case strings.ContainsAny(seg, "+#") && len(seg) > 1:
			return fmt.Errorf("core: pattern %q: wildcard must be a whole segment", pattern)
		}
	}
	return nil
}

// Standard topic builders used across the system.

// TopicObservation names the observation topic for a district/property.
func TopicObservation(district, property string) string {
	return "obs/" + district + "/" + property
}

// TopicEvent names the inference topic for a district/event type.
func TopicEvent(district, eventType string) string {
	return "event/" + district + "/" + eventType
}

// TopicIK names the IK report topic for a district/indicator slug.
func TopicIK(district, indicator string) string {
	return "ik/" + district + "/" + indicator
}

// TopicBulletin names the forecast bulletin topic for a district.
func TopicBulletin(district string) string {
	return "bulletin/" + district
}
