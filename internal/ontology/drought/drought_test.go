package drought

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/ontology/dolce"
	"repro/internal/ontology/ssn"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestBuildMaterialized(t *testing.T) {
	o, res, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 {
		t.Error("materialization should add entailments")
	}
	stats := o.Stats()
	if stats.Classes < 60 {
		t.Errorf("expected a substantial ontology library, got %+v", stats)
	}
	t.Logf("ontology library: %s (entailed %d in %d rounds)", stats, res.Added, res.Rounds)
}

func TestDroughtUnderDolceCategories(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cls  rdf.IRI
		want dolce.Category
	}{
		{DroughtEvent, dolce.CategoryPerdurant},
		{AgriculturalDrought, dolce.CategoryPerdurant},
		{RainfallDeficit, dolce.CategoryPerdurant},
		{ssn.Sensor, dolce.CategoryEndurant},
		{ssn.ObservedProperty, dolce.CategoryQuality},
		{Rainfall, dolce.CategoryQuality},
		{WaterLevel, dolce.CategoryQuality},
		{ssn.Unit, dolce.CategoryAbstract},
		{SeverityScale, dolce.CategoryAbstract},
		{IKIndicator, dolce.CategoryPerdurant},
		{Informant, dolce.CategoryEndurant},
	}
	for _, c := range cases {
		if got := dolce.Classify(o, c.cls); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.cls.LocalName(), got, c.want)
		}
	}
}

func TestCausalChainTransitive(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	// leadsTo is transitive: rainfall deficit ... leads to agricultural drought.
	if !o.Graph().Has(rdf.T(RainfallDeficit, LeadsTo, AgriculturalDrought)) {
		t.Error("transitive leadsTo chain not materialized")
	}
	if !o.Graph().Has(rdf.T(HeatWave, LeadsTo, AgriculturalDrought)) {
		t.Error("heat wave chain not materialized")
	}
}

func TestMultilingualWaterLevelLabels(t *testing.T) {
	o := Build()
	// The paper's example: Hoehe (de), Stav (cs).
	for _, l := range []rdf.Literal{
		rdf.NewLangLiteral("Hoehe", "de"),
		rdf.NewLangLiteral("Stav", "cs"),
		rdf.NewLangLiteral("water level", "en"),
	} {
		if !o.Graph().Has(rdf.T(WaterLevel, rdf.RDFSLabel, l)) {
			t.Errorf("WaterLevel lacks label %s", l)
		}
	}
}

func TestDistrictsGeography(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	if len(Districts) != 5 {
		t.Fatalf("Districts = %v", Districts)
	}
	for _, d := range Districts {
		if !o.Graph().Has(rdf.T(d, rdf.RDFType, DistrictClass)) {
			t.Errorf("%s should be a District", d)
		}
		if !o.Graph().Has(rdf.T(d, rdf.RDFType, ssn.FeatureOfInterest)) {
			t.Errorf("%s should be a FeatureOfInterest via hierarchy", d)
		}
		if !o.Graph().Has(rdf.T(d, LocatedIn, FreeState)) {
			t.Errorf("%s should be located in Free State", d)
		}
	}
}

func TestSeverityScaleOrdering(t *testing.T) {
	o := Build()
	ranks := []struct {
		iri  rdf.IRI
		want int
	}{
		{SeverityNormal, 0}, {SeverityWatch, 1}, {SeverityWarning, 2},
		{SeveritySevere, 3}, {SeverityExtreme, 4},
	}
	for _, r := range ranks {
		if got := SeverityRank(o, r.iri); got != r.want {
			t.Errorf("SeverityRank(%s) = %d, want %d", r.iri.LocalName(), got, r.want)
		}
	}
	if SeverityRank(o, NS.IRI("nope")) != -1 {
		t.Error("unknown severity should rank -1")
	}
}

func TestIKIndicatorsIndicateEvents(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	for _, sign := range []rdf.IRI{SifennefeneWormAbundance, MutigaTreeFlowering, StarClusterDimness} {
		if !o.Graph().Has(rdf.T(sign, Indicates, DroughtEvent)) {
			t.Errorf("%s should indicate DroughtEvent", sign.LocalName())
		}
		if !o.IsSubClassOf(sign, IKIndicator) {
			t.Errorf("%s should be an IK indicator", sign.LocalName())
		}
	}
	// Wet-signs indicate wet spells, not drought.
	if o.Graph().Has(rdf.T(MoonHalo, Indicates, DroughtEvent)) {
		t.Error("moon halo is a wet-spell sign")
	}
}

// consistencyQueries are SPARQL ASK queries over the materialized
// library, one per kind of violation the library could contain; each
// answers true when the graph holds a violation of its kind. The library
// declares no functional property, so no query checks one.
var consistencyQueries = []struct{ name, ask string }{
	{"disjoint-classes", `ASK {
  ?a owl:disjointWith ?b .
  ?x a ?a , ?b .
}`},
	{"undeclared-class", `ASK {
  ?x a ?c .
  OPTIONAL { ?c a ?meta . FILTER(?meta = owl:Class || ?meta = rdfs:Class) }
  FILTER(!BOUND(?meta) && ?c != owl:Class && ?c != rdfs:Class &&
         ?c != owl:Ontology && ?c != rdf:Property && ?c != owl:ObjectProperty &&
         ?c != owl:DatatypeProperty && ?c != owl:Thing && ?c != owl:TransitiveProperty &&
         ?c != owl:SymmetricProperty && ?c != owl:FunctionalProperty && ?c != rdf:Statement)
}`},
	{"literal-in-object-position", `ASK {
  ?p a owl:ObjectProperty .
  ?s ?p ?o .
  FILTER(isLiteral(?o))
}`},
}

// violates reports which consistency queries hold on g.
func violates(t *testing.T, g *rdf.Graph) []string {
	t.Helper()
	var out []string
	for _, q := range consistencyQueries {
		res, err := sparql.NewEngine(g).Query(q.ask)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if res.(bool) {
			out = append(out, q.name)
		}
	}
	return out
}

func TestConsistencyOfLibrary(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violates(t, o.Graph()) {
		t.Errorf("library violation: %s", v)
	}
}

// TestConsistencyQueriesCatchViolations adds one violating triple to a
// copy of the materialized library and expects exactly its query to
// fire.
func TestConsistencyQueriesCatchViolations(t *testing.T) {
	o, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	mutants := []struct {
		name string
		add  rdf.Triple
	}{
		// A unit is a dolce:Abstract, which is disjoint with dolce:Quality.
		{"disjoint-classes", rdf.T(ssn.UnitMillimetre, rdf.RDFType, dolce.Quality)},
		{"undeclared-class", rdf.T(Mangaung, rdf.RDFType, NS.IRI("Ghost"))},
		{"literal-in-object-position", rdf.T(Mangaung, LocatedIn, rdf.NewLiteral("Free State"))},
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			g := o.Graph().Clone()
			g.MustAdd(m.add)
			if got := violates(t, g); len(got) != 1 || got[0] != m.name {
				t.Errorf("violations = %v, want [%s]", got, m.name)
			}
		})
	}
}

func TestObservedPropertiesHaveUnits(t *testing.T) {
	o := Build()
	for _, p := range []rdf.IRI{Rainfall, SoilMoisture, AirTemperature, WaterLevel, NDVI} {
		if _, ok := o.Graph().FirstObject(p, ssn.HasUnit); !ok {
			t.Errorf("%s has no unit", p.LocalName())
		}
	}
}

func TestLibrarySerializesAndReparses(t *testing.T) {
	o := Build()
	text := rdf.TurtleString(o.Graph(), rdf.DefaultPrefixes())
	g2, err := rdf.ParseTurtleString(text)
	if err != nil {
		t.Fatalf("library turtle does not reparse: %v", err)
	}
	if !rdf.EqualGraphs(o.Graph(), g2) {
		t.Error("library turtle round-trip lost triples")
	}
	// And it can be wrapped again as an ontology.
	o2 := ontology.FromGraph(g2, IRIVersion)
	if len(o2.Classes()) != len(o.Classes()) {
		t.Error("class count changed after round trip")
	}
}
