package graphlog

import (
	"reflect"
	"testing"

	"repro/internal/rdf"
)

// FuzzDecodeGraphWAL asserts the WAL payload decoder is total: any byte
// string either decodes cleanly or fails with an error — no panics, no
// unbounded allocations — and whatever decodes re-encodes to the same
// batch.
func FuzzDecodeGraphWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{walRecBatch})
	seed := walBatch{
		firstID: 3,
		terms: []rdf.Term{
			rdf.IRI("http://e/x"),
			rdf.BlankNode("b1"),
			rdf.NewLangLiteral("hi", "en"),
			rdf.NewTypedLiteral("4", rdf.XSDInteger),
			rdf.NewLiteral("plain"),
		},
		add: []rdf.IDTriple{{S: 3, P: 4, O: 5}, {S: 1, P: 4, O: 7}},
		del: []rdf.IDTriple{{S: 1, P: 2, O: 3}},
	}
	f.Add(appendWALBatch(nil, &seed))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeWALBatch(data)
		if err != nil {
			return
		}
		re := appendWALBatch(nil, b)
		b2, err := decodeWALBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("round trip changed the batch:\n%+v\n%+v", b, b2)
		}
	})
}
