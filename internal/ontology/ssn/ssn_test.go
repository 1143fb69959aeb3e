package ssn

import (
	"testing"
	"time"

	"repro/internal/ontology"
	"repro/internal/ontology/dolce"
	"repro/internal/rdf"
)

func TestBuildAlignment(t *testing.T) {
	o := Build()
	if _, err := (ontology.Reasoner{}).Materialize(o); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ cls, super rdf.IRI }{
		{Sensor, dolce.PhysicalObject},
		{Platform, dolce.PhysicalObject},
		{Observation, dolce.Perdurant},
		{ObservedProperty, dolce.Quality},
		{Unit, dolce.Abstract},
	}
	for _, c := range cases {
		if !o.IsSubClassOf(c.cls, c.super) {
			t.Errorf("%s should align under %s", c.cls.LocalName(), c.super.LocalName())
		}
	}
}

func TestUnitsDeclared(t *testing.T) {
	o := Build()
	if _, err := (ontology.Reasoner{}).Materialize(o); err != nil {
		t.Fatal(err)
	}
	for _, u := range []rdf.IRI{UnitMillimetre, UnitCelsius, UnitPercent, UnitMetre, UnitIndex} {
		if !o.Graph().Has(rdf.T(u, rdf.RDFType, Unit)) {
			t.Errorf("%s should be a Unit individual", u.LocalName())
		}
		if _, ok := o.Graph().FirstObject(u, NS.IRI("symbol")); !ok {
			t.Errorf("%s has no symbol", u.LocalName())
		}
	}
}

func sampleRecord() Record {
	return Record{
		ID:       rdf.NSOBS.IRI("obs-1"),
		Sensor:   NS.IRI("sensor-1"),
		Property: rdf.NSDEWS.IRI("Rainfall"),
		Feature:  rdf.NSGEO.IRI("Mangaung"),
		Value:    12.5,
		Unit:     UnitMillimetre,
		Time:     time.Date(2015, 11, 20, 6, 0, 0, 0, time.UTC),
		Quality:  0.93,
	}
}

func TestRecordValidate(t *testing.T) {
	good := sampleRecord()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"missing id", func(r *Record) { r.ID = "" }},
		{"missing property", func(r *Record) { r.Property = "" }},
		{"missing time", func(r *Record) { r.Time = time.Time{} }},
		{"quality too high", func(r *Record) { r.Quality = 1.5 }},
		{"quality negative", func(r *Record) { r.Quality = -0.1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := sampleRecord()
			c.mutate(&r)
			if err := r.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestRecordGraphRoundTrip(t *testing.T) {
	r := sampleRecord()
	g := rdf.NewGraph()
	if err := r.ToGraph(g); err != nil {
		t.Fatal(err)
	}
	got, err := FromGraph(g, r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensor != r.Sensor || got.Property != r.Property || got.Feature != r.Feature ||
		got.Unit != r.Unit || got.Value != r.Value || got.Quality != r.Quality ||
		!got.Time.Equal(r.Time) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordOptionalFields(t *testing.T) {
	r := sampleRecord()
	r.Sensor = ""
	r.Feature = ""
	r.Unit = ""
	g := rdf.NewGraph()
	if err := r.ToGraph(g); err != nil {
		t.Fatal(err)
	}
	got, err := FromGraph(g, r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensor != "" || got.Feature != "" || got.Unit != "" {
		t.Errorf("optional fields should stay empty: %+v", got)
	}
}

func TestFromGraphErrors(t *testing.T) {
	g := rdf.NewGraph()
	if _, err := FromGraph(g, rdf.NSOBS.IRI("missing")); err == nil {
		t.Error("missing node should error")
	}
	// Observation without property.
	id := rdf.NSOBS.IRI("broken")
	g.MustAdd(rdf.T(id, rdf.RDFType, Observation))
	if _, err := FromGraph(g, id); err == nil {
		t.Error("observation without property should error")
	}
	// With property but no time.
	g.MustAdd(rdf.T(id, HasObservedProperty, rdf.NSDEWS.IRI("Rainfall")))
	if _, err := FromGraph(g, id); err == nil {
		t.Error("observation without time should error")
	}
}

func TestToGraphRejectsInvalid(t *testing.T) {
	r := sampleRecord()
	r.Quality = 7
	if err := r.ToGraph(rdf.NewGraph()); err == nil {
		t.Error("invalid record must not serialize")
	}
}
