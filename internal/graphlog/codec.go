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

// uvarintVal reads one uvarint value field (not a length — an ID or a
// count) without the remaining-bytes bound.
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
//	u8      recType (walRecBatch)
//	uvarint firstID          dict-delta base (meaningful when termCount > 0)
//	uvarint termCount, then termCount × term
//	uvarint addCount,  then addCount  × (uvarint S, uvarint P, uvarint O)
//	uvarint delCount,  then delCount  × (uvarint S, uvarint P, uvarint O)
const walRecBatch = 1

// walBatch is one committed mutation batch: the terms the batch
// interned (IDs firstID..firstID+len(terms)-1) plus the ID-triples it
// added and removed.
type walBatch struct {
	firstID rdf.ID
	terms   []rdf.Term
	add     []rdf.IDTriple
	del     []rdf.IDTriple
}

// appendWALBatch appends b's payload encoding to dst.
func appendWALBatch(dst []byte, b *walBatch) []byte {
	dst = append(dst, walRecBatch)
	dst = binary.AppendUvarint(dst, uint64(b.firstID))
	dst = binary.AppendUvarint(dst, uint64(len(b.terms)))
	for _, t := range b.terms {
		dst = appendTerm(dst, t)
	}
	for _, its := range [2][]rdf.IDTriple{b.add, b.del} {
		dst = binary.AppendUvarint(dst, uint64(len(its)))
		for _, it := range its {
			dst = binary.AppendUvarint(dst, uint64(it.S))
			dst = binary.AppendUvarint(dst, uint64(it.P))
			dst = binary.AppendUvarint(dst, uint64(it.O))
		}
	}
	return dst
}

// decodeWALBatch decodes a WAL record payload.
func decodeWALBatch(body []byte) (*walBatch, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("graphlog: empty WAL record")
	}
	if body[0] != walRecBatch {
		return nil, fmt.Errorf("graphlog: unknown WAL record type %d", body[0])
	}
	b := &walBatch{}
	first, at, err := uvarintVal(body, 1)
	if err != nil {
		return nil, fmt.Errorf("graphlog: WAL batch firstID: %w", err)
	}
	if first > 1<<32-1 {
		return nil, fmt.Errorf("graphlog: WAL batch firstID %d overflows ID", first)
	}
	b.firstID = rdf.ID(first)
	termCount, at, err := uvarintVal(body, at)
	if err != nil {
		return nil, fmt.Errorf("graphlog: WAL batch term count: %w", err)
	}
	// Every encoded term is at least 2 bytes, every encoded triple at
	// least 3: a corrupt count cannot force a huge allocation.
	if termCount > uint64(len(body)-at)/2 {
		return nil, fmt.Errorf("graphlog: WAL batch claims %d terms in %d bytes", termCount, len(body)-at)
	}
	if termCount > 0 {
		if b.firstID == 0 {
			return nil, fmt.Errorf("graphlog: WAL batch with terms but firstID 0")
		}
		b.terms = make([]rdf.Term, 0, termCount)
		for i := uint64(0); i < termCount; i++ {
			var t rdf.Term
			if t, at, err = decodeTerm(body, at); err != nil {
				return nil, fmt.Errorf("graphlog: WAL batch term %d: %w", i, err)
			}
			b.terms = append(b.terms, t)
		}
	}
	for which, dst := range []*[]rdf.IDTriple{&b.add, &b.del} {
		count, next, err := uvarintVal(body, at)
		if err != nil {
			return nil, fmt.Errorf("graphlog: WAL batch triple count: %w", err)
		}
		at = next
		if count > uint64(len(body)-at) {
			return nil, fmt.Errorf("graphlog: WAL batch claims %d triples in %d bytes", count, len(body)-at)
		}
		if count == 0 {
			continue
		}
		its := make([]rdf.IDTriple, 0, count)
		for i := uint64(0); i < count; i++ {
			var s, p, o uint64
			if s, at, err = uvarintVal(body, at); err == nil {
				if p, at, err = uvarintVal(body, at); err == nil {
					o, at, err = uvarintVal(body, at)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("graphlog: WAL batch triple %d of set %d: %w", i, which, err)
			}
			if s == 0 || s > 1<<32-1 || p == 0 || p > 1<<32-1 || o == 0 || o > 1<<32-1 {
				return nil, fmt.Errorf("graphlog: WAL batch triple %d has ID outside [1, 2^32)", i)
			}
			its = append(its, rdf.IDTriple{S: rdf.ID(s), P: rdf.ID(p), O: rdf.ID(o)})
		}
		*dst = its
	}
	if at != len(body) {
		return nil, fmt.Errorf("graphlog: WAL batch has %d trailing bytes", len(body)-at)
	}
	return b, nil
}
