package mediator

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ontology"
	"repro/internal/ontology/drought"
	"repro/internal/ontology/ssn"
	"repro/internal/rdf"
)

// Alignment is a resolved mapping from a vendor wire name to a unified
// ontology property.
type Alignment struct {
	// Property is the unified observed-property class IRI.
	Property rdf.IRI
	// Confidence in [0,1]: 1.0 for exact/registered alignments, the
	// similarity score for fuzzy matches.
	Confidence float64
	// MatchedLabel is the ontology label that won the fuzzy match
	// (empty for registered alignments).
	MatchedLabel string
}

// Registry resolves wire names against the ontology. Resolution order:
//
//  1. explicit registrations (vendor-qualified first, then global);
//  2. fuzzy label matching over every rdfs:label (any language) of every
//     subclass of ssn:ObservedProperty, accepted above Threshold;
//  3. failure (counted; the caller decides whether to drop or quarantine).
//
// Fuzzy matches above LearnThreshold are cached as if registered, so the
// registry "learns" stable vocabulary over time. Safe for concurrent use.
type Registry struct {
	// Threshold is the minimum similarity for a fuzzy match (default 0.78).
	Threshold float64
	// LearnThreshold is the minimum similarity to cache a fuzzy match
	// (default 0.9).
	LearnThreshold float64

	mu sync.RWMutex
	// exact maps key ("vendor\x00name" or "\x00name") → alignment.
	exact map[string]Alignment
	// labels is the fuzzy-match corpus: label → property IRI.
	labels []labelEntry
	// stats
	hitsExact, hitsFuzzy, misses int
}

type labelEntry struct {
	label    string
	property rdf.IRI
}

// NewRegistry builds a registry whose fuzzy corpus is extracted from the
// ontology: every label of every subclass of ssn:ObservedProperty.
func NewRegistry(o *ontology.Ontology) *Registry {
	r := &Registry{
		Threshold:      0.78,
		LearnThreshold: 0.9,
		exact:          make(map[string]Alignment),
	}
	props := o.SubClasses(ssn.ObservedProperty)
	for _, p := range props {
		for _, labelProp := range []rdf.IRI{rdf.RDFSLabel, drought.AltLabel} {
			o.Graph().ForEachMatch(p, labelProp, nil, func(t rdf.Triple) bool {
				if lit, ok := t.O.(rdf.Literal); ok {
					r.labels = append(r.labels, labelEntry{label: lit.Lexical, property: p})
				}
				return true
			})
		}
		// The class local name is also a usable label ("SoilMoisture").
		r.labels = append(r.labels, labelEntry{label: p.LocalName(), property: p})
	}
	sort.Slice(r.labels, func(i, j int) bool {
		if r.labels[i].label != r.labels[j].label {
			return r.labels[i].label < r.labels[j].label
		}
		return r.labels[i].property < r.labels[j].property
	})
	return r
}

// Register adds an explicit alignment. Empty vendor means "any vendor".
func (r *Registry) Register(vendor, wireName string, property rdf.IRI) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exact[alignKey(vendor, wireName)] = Alignment{Property: property, Confidence: 1}
}

// Stats returns (exact hits, fuzzy hits, misses).
func (r *Registry) Stats() (exact, fuzzy, misses int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hitsExact, r.hitsFuzzy, r.misses
}

// Resolve maps a vendor wire name to a unified property.
func (r *Registry) Resolve(vendor, wireName string) (Alignment, error) {
	r.mu.RLock()
	if a, ok := r.exact[alignKey(vendor, wireName)]; ok {
		r.mu.RUnlock()
		r.countExact()
		return a, nil
	}
	if a, ok := r.exact[alignKey("", wireName)]; ok {
		r.mu.RUnlock()
		r.countExact()
		return a, nil
	}
	r.mu.RUnlock()

	best, ok := r.fuzzyMatch(wireName)
	if !ok {
		r.mu.Lock()
		r.misses++
		r.mu.Unlock()
		return Alignment{}, fmt.Errorf("mediator: no alignment for %s/%s", vendor, wireName)
	}
	r.mu.Lock()
	r.hitsFuzzy++
	if best.Confidence >= r.LearnThreshold {
		r.exact[alignKey(vendor, wireName)] = best
	}
	r.mu.Unlock()
	return best, nil
}

func (r *Registry) countExact() {
	r.mu.Lock()
	r.hitsExact++
	r.mu.Unlock()
}

// fuzzyMatch scans the label corpus for the best similarity.
func (r *Registry) fuzzyMatch(wireName string) (Alignment, bool) {
	bestScore := 0.0
	var bestEntry labelEntry
	for _, e := range r.labels {
		s := Similarity(wireName, e.label)
		if s > bestScore {
			bestScore = s
			bestEntry = e
		}
	}
	if bestScore < r.Threshold {
		return Alignment{}, false
	}
	return Alignment{
		Property:     bestEntry.property,
		Confidence:   bestScore,
		MatchedLabel: bestEntry.label,
	}, true
}

func alignKey(vendor, wireName string) string {
	return strings.ToLower(vendor) + "\x00" + strings.ToLower(wireName)
}

// SeedAlignments registers the disambiguations that fuzzy matching cannot
// decide on its own — vendor terms that are ambiguous across properties
// (Czech "Vlhkost" alone means humidity, while "vlhkost půdy" is soil
// moisture). A deployment ships such a seed table alongside the ontology;
// the paper's §5 "gathering ... through questionnaire, workshop and
// interactive sessions" plays the same role for IK vocabulary.
func SeedAlignments(r *Registry) {
	r.Register("chmi", "Vlhkost", drought.RelativeHumidity)
	r.Register("davis", "outsideHumidity", drought.RelativeHumidity)
	r.Register("davis", "outsideTemp", drought.AirTemperature)
}

// --- unit conversion ---

// UnitConversion converts a vendor value into the canonical unit of a
// property.
type UnitConversion struct {
	// Canonical is the canonical unit IRI the conversion produces.
	Canonical rdf.IRI
	// Convert maps vendor value → canonical value.
	Convert func(float64) float64
}

// UnitTable maps (vendor unit name, canonical unit IRI) → conversion.
// The canonical unit of a property comes from the ontology
// (property ssn:hasUnit unit); the vendor unit name arrives with the raw
// reading.
type UnitTable struct {
	conv map[string]map[rdf.IRI]func(float64) float64
}

// NewUnitTable returns the built-in conversion table covering the vendor
// population of the WSN substrate.
func NewUnitTable() *UnitTable {
	id := func(v float64) float64 { return v }
	t := &UnitTable{conv: make(map[string]map[rdf.IRI]func(float64) float64)}
	add := func(unitName string, canonical rdf.IRI, f func(float64) float64) {
		m, ok := t.conv[unitName]
		if !ok {
			m = make(map[rdf.IRI]func(float64) float64)
			t.conv[unitName] = m
		}
		m[canonical] = f
	}
	// Rain depth.
	add("mm", ssn.UnitMillimetre, id)
	add("in", ssn.UnitMillimetre, func(v float64) float64 { return v * 25.4 })
	// Soil moisture.
	add("frac", ssn.UnitFraction, id)
	add("pct", ssn.UnitFraction, func(v float64) float64 { return v / 100 })
	add("cbar", ssn.UnitFraction, func(v float64) float64 { return clamp01(1 - v/200) })
	// Humidity stays percent.
	add("pct", ssn.UnitPercent, id)
	add("frac", ssn.UnitPercent, func(v float64) float64 { return v * 100 })
	// Temperature.
	add("degC", ssn.UnitCelsius, id)
	add("degF", ssn.UnitCelsius, func(v float64) float64 { return (v - 32) * 5 / 9 })
	add("K", ssn.UnitCelsius, func(v float64) float64 { return v - 273.15 })
	// Wind.
	add("m_s", ssn.UnitMetrePerSecond, id)
	add("km_h", ssn.UnitMetrePerSecond, func(v float64) float64 { return v / 3.6 })
	// Levels.
	add("m", ssn.UnitMetre, id)
	add("cm", ssn.UnitMetre, func(v float64) float64 { return v / 100 })
	// Indices.
	add("idx", ssn.UnitIndex, id)
	return t
}

// Convert maps a vendor value to the canonical unit.
func (t *UnitTable) Convert(vendorUnit string, canonical rdf.IRI, value float64) (float64, error) {
	m, ok := t.conv[vendorUnit]
	if !ok {
		return 0, fmt.Errorf("mediator: unknown vendor unit %q", vendorUnit)
	}
	f, ok := m[canonical]
	if !ok {
		return 0, fmt.Errorf("mediator: no conversion %q → %s", vendorUnit, canonical.LocalName())
	}
	return f(value), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
