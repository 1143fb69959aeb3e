package graphlog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// The binary codec of the WAL record payloads. Everything is little-endian; variable-length fields are uvarint
// length-prefixed. Decoders never trust a length field further than the
// bytes that actually remain, so corrupt (or fuzzed) input fails with a
// clean error instead of a panic or an absurd allocation.

// Term wire kinds. A literal's shape is part of the kind so the common
// cases (IRI, plain literal) cost one tag byte and one length.
const (
	termIRI      = 1 // uvarint len, IRI bytes
	termBlank    = 2 // uvarint len, label bytes
	termLitPlain = 3 // uvarint len, lexical bytes
	termLitTyped = 4 // lexical, then uvarint len + datatype IRI bytes
	termLitLang  = 5 // lexical, then uvarint len + language tag bytes
)

// uvarint reads one uvarint length field at body[at:] and bounds it by
// the bytes that could still follow it.
func uvarint(body []byte, at int) (int, int, error) {
	v, n := binary.Uvarint(body[at:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad varint at byte %d", at)
	}
	at += n
	if v > uint64(len(body)-at) {
		return 0, 0, fmt.Errorf("length %d exceeds remaining %d bytes", v, len(body)-at)
	}
	return int(v), at, nil
}

// uvarintVal reads one uvarint value field (not a length — a count)
// without the remaining-bytes bound.
func uvarintVal(body []byte, at int) (uint64, int, error) {
	v, n := binary.Uvarint(body[at:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad varint at byte %d", at)
	}
	return v, at + n, nil
}

// appendTerm appends t's wire encoding to dst.
func appendTerm(dst []byte, t rdf.Term) []byte {
	switch t := t.(type) {
	case rdf.IRI:
		dst = append(dst, termIRI)
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		return append(dst, t...)
	case rdf.BlankNode:
		dst = append(dst, termBlank)
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		return append(dst, t...)
	case rdf.Literal:
		switch {
		case t.Lang != "":
			dst = append(dst, termLitLang)
			dst = binary.AppendUvarint(dst, uint64(len(t.Lexical)))
			dst = append(dst, t.Lexical...)
			dst = binary.AppendUvarint(dst, uint64(len(t.Lang)))
			return append(dst, t.Lang...)
		case t.Datatype != "":
			dst = append(dst, termLitTyped)
			dst = binary.AppendUvarint(dst, uint64(len(t.Lexical)))
			dst = append(dst, t.Lexical...)
			dst = binary.AppendUvarint(dst, uint64(len(t.Datatype)))
			return append(dst, t.Datatype...)
		default:
			dst = append(dst, termLitPlain)
			dst = binary.AppendUvarint(dst, uint64(len(t.Lexical)))
			return append(dst, t.Lexical...)
		}
	default:
		// The rdf package has exactly three Term implementations; a new
		// one must be given a wire kind before it can be persisted.
		panic(fmt.Sprintf("graphlog: unencodable term type %T", t))
	}
}

// decodeTerm decodes one term at body[at:], returning it and the next
// read position.
func decodeTerm(body []byte, at int) (rdf.Term, int, error) {
	if at >= len(body) {
		return nil, 0, fmt.Errorf("truncated term at byte %d", at)
	}
	kind := body[at]
	at++
	n, at, err := uvarint(body, at)
	if err != nil {
		return nil, 0, err
	}
	first := string(body[at : at+n])
	at += n
	switch kind {
	case termIRI:
		return rdf.IRI(first), at, nil
	case termBlank:
		return rdf.BlankNode(first), at, nil
	case termLitPlain:
		return rdf.Literal{Lexical: first}, at, nil
	case termLitTyped:
		if n, at, err = uvarint(body, at); err != nil {
			return nil, 0, err
		}
		dt := rdf.IRI(body[at : at+n])
		if dt == "" {
			return nil, 0, fmt.Errorf("typed literal with empty datatype at byte %d", at)
		}
		return rdf.Literal{Lexical: first, Datatype: dt}, at + n, nil
	case termLitLang:
		if n, at, err = uvarint(body, at); err != nil {
			return nil, 0, err
		}
		lang := string(body[at : at+n])
		if lang == "" {
			return nil, 0, fmt.Errorf("language literal with empty tag at byte %d", at)
		}
		return rdf.Literal{Lexical: first, Lang: lang}, at + n, nil
	default:
		return nil, 0, fmt.Errorf("unknown term kind %d at byte %d", kind, at-1)
	}
}

// WAL record payload layout (the eventlog frame already carries length +
// CRC + offset; this is the body the graph layer owns):
//
//	u8      recType (walRecTriples)
//	uvarint addCount, then addCount × (term S, term P, term O)
//	uvarint delCount, then delCount × (term S, term P, term O)
//
// Triples travel by value, so a record means the same thing whatever
// IDs the graph's term dictionary assigns on replay.
const walRecTriples = 2

// walRecIDTriples is the record type of an older build's WAL, which
// logged dictionary deltas plus ID-triples. Open refuses it.
const walRecIDTriples = 1

// walBatch is one committed mutation batch: the triples it added and
// removed.
type walBatch struct {
	add, del []rdf.Triple
}

// appendWALBatch appends b's payload encoding to dst.
func appendWALBatch(dst []byte, b *walBatch) []byte {
	dst = append(dst, walRecTriples)
	for _, ts := range [2][]rdf.Triple{b.add, b.del} {
		dst = binary.AppendUvarint(dst, uint64(len(ts)))
		for _, t := range ts {
			dst = appendTerm(dst, t.S)
			dst = appendTerm(dst, t.P)
			dst = appendTerm(dst, t.O)
		}
	}
	return dst
}

// decodeWALBatch decodes a WAL record payload.
func decodeWALBatch(body []byte) (*walBatch, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("graphlog: empty WAL record")
	}
	switch body[0] {
	case walRecTriples:
	case walRecIDTriples:
		return nil, fmt.Errorf("graphlog: WAL record in the dictionary-ID format (type %d) of an older build; "+
			"delete the graph directory: dews rebuilds the graph from the log's bulletin/# records", body[0])
	default:
		return nil, fmt.Errorf("graphlog: unknown WAL record type %d", body[0])
	}
	b := &walBatch{}
	at := 1
	for which, dst := range []*[]rdf.Triple{&b.add, &b.del} {
		count, next, err := uvarintVal(body, at)
		if err != nil {
			return nil, fmt.Errorf("graphlog: WAL batch triple count: %w", err)
		}
		at = next
		// Every encoded term is at least 2 bytes, so every triple at
		// least 6: a corrupt count cannot force a huge allocation.
		if count > uint64(len(body)-at)/6 {
			return nil, fmt.Errorf("graphlog: WAL batch claims %d triples in %d bytes", count, len(body)-at)
		}
		ts := make([]rdf.Triple, count)
		for i := range ts {
			var spo [3]rdf.Term
			for j := range spo {
				if spo[j], at, err = decodeTerm(body, at); err != nil {
					return nil, fmt.Errorf("graphlog: WAL batch triple %d of set %d: %w", i, which, err)
				}
			}
			ts[i] = rdf.Triple{S: spo[0], P: spo[1], O: spo[2]}
		}
		*dst = ts
	}
	if at != len(body) {
		return nil, fmt.Errorf("graphlog: WAL batch has %d trailing bytes", len(body)-at)
	}
	return b, nil
}
