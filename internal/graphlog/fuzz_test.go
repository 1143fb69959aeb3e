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
	f.Add([]byte{walRecTriples})
	f.Add(appendWALBatch(nil, &walBatch{
		add: []rdf.Triple{
			rdf.T(rdf.IRI("http://e/x"), rdf.IRI("http://e/p"), rdf.NewLangLiteral("hi", "en")),
			rdf.T(rdf.BlankNode("b1"), rdf.IRI("http://e/p"), rdf.NewTypedLiteral("4", rdf.XSDInteger)),
			rdf.T(rdf.IRI("http://e/x"), rdf.IRI("http://e/q"), rdf.BlankNode("b1")),
		},
		del: []rdf.Triple{
			rdf.T(rdf.IRI("http://e/y"), rdf.IRI("http://e/p"), rdf.NewLiteral("plain")),
		},
	}))
	f.Add(appendWALBatch(nil, &walBatch{del: bulletin(7)}))
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
