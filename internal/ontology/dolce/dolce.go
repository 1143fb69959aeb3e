// Package dolce builds the fragment of the DOLCE foundational ontology
// (Descriptive Ontology for Linguistic and Cognitive Engineering, Masolo
// et al., WonderWeb D17) that the paper uses as its upper level: the
// top-level split into endurants, perdurants, qualities and abstracts,
// with the participation, quality and parthood relations that connect
// them.
//
// The paper classifies environmental entities with exactly these
// categories ("the entities will be identified and classified based on
// DOLCE classification of endurants, perdurants and quality"), so this
// fragment stands in for the full DOLCE ontology.
package dolce

import (
	"repro/internal/ontology"
	"repro/internal/rdf"
)

// NS is the DOLCE namespace used by the middleware.
const NS = rdf.NSDOLCE

// Top-level and intermediate DOLCE categories.
var (
	Particular = NS.IRI("Particular")

	// Endurants: wholly present at any time they are present.
	Endurant            = NS.IRI("Endurant")
	PhysicalEndurant    = NS.IRI("PhysicalEndurant")
	PhysicalObject      = NS.IRI("PhysicalObject")
	AmountOfMatter      = NS.IRI("AmountOfMatter")
	Feature             = NS.IRI("Feature")
	NonPhysicalEndurant = NS.IRI("NonPhysicalEndurant")
	SocialObject        = NS.IRI("SocialObject")

	// Perdurants: happen in time, have temporal parts.
	Perdurant      = NS.IRI("Perdurant")
	Event          = NS.IRI("Event")
	Achievement    = NS.IRI("Achievement")
	Accomplishment = NS.IRI("Accomplishment")
	Stative        = NS.IRI("Stative")
	State          = NS.IRI("State")
	Process        = NS.IRI("Process")

	// Qualities: inhere in entities; their values live in regions.
	Quality         = NS.IRI("Quality")
	PhysicalQuality = NS.IRI("PhysicalQuality")
	TemporalQuality = NS.IRI("TemporalQuality")
	AbstractQuality = NS.IRI("AbstractQuality")

	// Abstracts: outside space-time (value spaces).
	Abstract       = NS.IRI("Abstract")
	Region         = NS.IRI("Region")
	PhysicalRegion = NS.IRI("PhysicalRegion")
	TemporalRegion = NS.IRI("TemporalRegion")
	TimeInterval   = NS.IRI("TimeInterval")
	AbstractRegion = NS.IRI("AbstractRegion")
)

// DOLCE relations.
var (
	ParticipatesIn = NS.IRI("participatesIn") // endurant × perdurant
	HasParticipant = NS.IRI("hasParticipant") // inverse
	HasQuality     = NS.IRI("hasQuality")     // particular × quality
	InheresIn      = NS.IRI("inheresIn")      // inverse
	HasQuale       = NS.IRI("hasQuale")       // quality × region
	PartOf         = NS.IRI("partOf")         // transitive parthood
	HasPart        = NS.IRI("hasPart")        // inverse
	PrecededBy     = NS.IRI("precededBy")     // perdurant ordering (transitive)
	HappensDuring  = NS.IRI("happensDuring")  // perdurant × time interval
	HasLocation    = NS.IRI("hasLocation")    // particular × physical region
)

// IRIVersion identifies the ontology document.
var IRIVersion = rdf.IRI("http://dews.africrid.example/ontology/dolce")

// Build constructs the DOLCE fragment as a fresh ontology.
func Build() *ontology.Ontology {
	o := ontology.New(IRIVersion, "DOLCE upper-level fragment")

	o.Class(Particular).
		Label("particular", "en").
		Comment("Anything that exists in the DOLCE sense; the root of the taxonomy.")

	// Endurant branch.
	o.Class(Endurant).Sub(Particular).
		Label("endurant", "en").
		Comment("Entity wholly present at any time it is present (objects, amounts of matter).").
		DisjointWith(Perdurant)
	o.Class(PhysicalEndurant).Sub(Endurant).Label("physical endurant", "en")
	o.Class(PhysicalObject).Sub(PhysicalEndurant).
		Label("physical object", "en").
		Comment("Endurant with unity: sensors, trees, worms, farms.")
	o.Class(AmountOfMatter).Sub(PhysicalEndurant).
		Label("amount of matter", "en").
		Comment("Mereologically invariant stuff: water, soil, air.")
	o.Class(Feature).Sub(PhysicalEndurant).
		Label("feature", "en").
		Comment("Dependent places or bounds: a catchment, a horizon.")
	o.Class(NonPhysicalEndurant).Sub(Endurant).Label("non-physical endurant", "en")
	o.Class(SocialObject).Sub(NonPhysicalEndurant).
		Label("social object", "en").
		Comment("Socially constructed endurants: communities, institutions, knowledge systems.")

	// Perdurant branch.
	o.Class(Perdurant).Sub(Particular).
		Label("perdurant", "en").
		Comment("Entity that happens in time: events, states, processes.")
	o.Class(Event).Sub(Perdurant).
		Label("event", "en").
		Comment("Perdurant that is not homeomeric: a drought, a storm.")
	o.Class(Achievement).Sub(Event).
		Label("achievement", "en").
		Comment("Instantaneous event: onset of rain, a threshold crossing.")
	o.Class(Accomplishment).Sub(Event).
		Label("accomplishment", "en").
		Comment("Extended event with culmination: a full drought episode.")
	o.Class(Stative).Sub(Perdurant).Label("stative", "en")
	o.Class(State).Sub(Stative).
		Label("state", "en").
		Comment("Homeomeric stative perdurant: being dry, being depleted.")
	o.Class(Process).Sub(Stative).
		Label("process", "en").
		Comment("Cumulative stative perdurant: soil-moisture decline, rainfall accumulation.")

	// Quality branch.
	o.Class(Quality).Sub(Particular).
		Label("quality", "en").
		Comment("Individual quality inhering in a particular: the temperature of this air mass.").
		DisjointWith(Abstract)
	o.Class(PhysicalQuality).Sub(Quality).Label("physical quality", "en")
	o.Class(TemporalQuality).Sub(Quality).Label("temporal quality", "en")
	o.Class(AbstractQuality).Sub(Quality).Label("abstract quality", "en")

	// Abstract branch.
	o.Class(Abstract).Sub(Particular).
		Label("abstract", "en").
		Comment("Entities outside space-time; notably regions (value spaces).")
	o.Class(Region).Sub(Abstract).Label("region", "en")
	o.Class(PhysicalRegion).Sub(Region).
		Label("physical region", "en").
		Comment("Value space of physical qualities: the millimetre scale, the Celsius scale.")
	o.Class(TemporalRegion).Sub(Region).Label("temporal region", "en")
	o.Class(TimeInterval).Sub(TemporalRegion).Label("time interval", "en")
	o.Class(AbstractRegion).Sub(Region).Label("abstract region", "en")

	// Relations.
	o.ObjectProperty(ParticipatesIn).
		Domain(Endurant).Range(Perdurant).
		Label("participates in", "en").
		Comment("Connects an endurant to the perdurants it takes part in.").
		InverseOf(HasParticipant)
	o.ObjectProperty(HasParticipant).
		Domain(Perdurant).Range(Endurant).
		Label("has participant", "en")
	o.ObjectProperty(HasQuality).
		Domain(Particular).Range(Quality).
		Label("has quality", "en").
		InverseOf(InheresIn)
	o.ObjectProperty(InheresIn).
		Domain(Quality).Range(Particular).
		Label("inheres in", "en")
	o.ObjectProperty(HasQuale).
		Domain(Quality).Range(Region).
		Label("has quale", "en").
		Comment("Maps a quality to the region (value) it occupies at a time.")
	o.ObjectProperty(PartOf).
		Transitive().
		Label("part of", "en").
		InverseOf(HasPart)
	o.ObjectProperty(HasPart).Transitive().Label("has part", "en")
	o.ObjectProperty(PrecededBy).
		Domain(Perdurant).Range(Perdurant).
		Transitive().
		Label("preceded by", "en").
		Comment("Temporal precedence between perdurants; the 'process leads to event' chain.")
	o.ObjectProperty(HappensDuring).
		Domain(Perdurant).Range(TimeInterval).
		Label("happens during", "en")
	o.ObjectProperty(HasLocation).
		Domain(Particular).Range(PhysicalRegion).
		Label("has location", "en")

	return o
}

// Category is a coarse DOLCE classification used by the annotator to tag
// incoming entities (the "what" of the paper's what/where/when).
type Category int

// Categories, aligned with the top-level split.
const (
	CategoryUnknown Category = iota
	CategoryEndurant
	CategoryPerdurant
	CategoryQuality
	CategoryAbstract
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CategoryEndurant:
		return "endurant"
	case CategoryPerdurant:
		return "perdurant"
	case CategoryQuality:
		return "quality"
	case CategoryAbstract:
		return "abstract"
	default:
		return "unknown"
	}
}

// Classify returns the top-level DOLCE category of a class IRI with
// respect to the (materialized or not) ontology o.
func Classify(o *ontology.Ontology, cls rdf.IRI) Category {
	switch {
	case o.IsSubClassOf(cls, Endurant):
		return CategoryEndurant
	case o.IsSubClassOf(cls, Perdurant):
		return CategoryPerdurant
	case o.IsSubClassOf(cls, Quality):
		return CategoryQuality
	case o.IsSubClassOf(cls, Abstract):
		return CategoryAbstract
	default:
		return CategoryUnknown
	}
}
