package ik

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/climate"
)

// GeneratorConfig drives synthetic report generation.
type GeneratorConfig struct {
	// Pool is the informant population.
	Pool *InformantPool
	// District tags the generated reports.
	District string
	// ReportRate is the per-informant, per-indicator daily probability of
	// even looking for the sign (reports are sparse).
	ReportRate float64
	// Seed for reproducibility.
	Seed int64
}

// GenerateReports synthesizes informant reports over a simulated series.
//
// These synthetic reports stand in for real informant reports, which the
// paper does not publish. The generative story: a sign "really shows"
// ahead of a drought when the ground truth says a drought is
// underway LeadTimeDays later; an informant with skill s reports the sign
// correctly with probability s and hallucinates it with probability
// (1-s)/3. Wet-polarity signs mirror this against upcoming wet (non-
// drought) conditions. This reproduces exactly the statistical structure
// the middleware must fuse: heterogeneous, culturally-coded, variably
// reliable signals with genuine lead-time information.
func GenerateReports(cfg GeneratorConfig, days []climate.Day, truth *climate.Truth) ([]Report, error) {
	if cfg.Pool == nil || len(cfg.Pool.Names) == 0 {
		return nil, fmt.Errorf("ik: generator needs an informant pool")
	}
	if len(days) == 0 || truth == nil || len(truth.InDrought) != len(days) {
		return nil, fmt.Errorf("ik: series and truth must align")
	}
	rate := cfg.ReportRate
	if rate == 0 {
		rate = 0.02
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	catalogue := Catalogue()
	var out []Report
	for di, day := range days {
		for _, ind := range catalogue {
			// Does the sign objectively show today?
			ahead := di + ind.LeadTimeDays
			signTruth := false
			if ahead < len(days) {
				upcoming := truth.InDrought[ahead]
				if ind.Polarity == PolarityDry {
					signTruth = upcoming
				} else {
					signTruth = !upcoming && days[ahead].RainMM > 0.5
				}
			}
			for _, informant := range cfg.Pool.Names {
				if rng.Float64() >= rate {
					continue // not watching today
				}
				skill := cfg.Pool.Skill[informant]
				var observed bool
				if signTruth {
					observed = rng.Float64() < skill
				} else {
					observed = rng.Float64() < (1-skill)/3
				}
				if !observed {
					continue
				}
				out = append(out, Report{
					Informant: informant,
					Indicator: ind.Slug,
					District:  cfg.District,
					Time:      day.Date,
					Strength:  clamp01(0.5 + 0.5*rng.Float64()),
				})
			}
		}
	}
	return out, nil
}

// ScoreReports replays reports against ground truth and updates informant
// track records: a dry-sign report is a hit when a drought was indeed in
// progress LeadTimeDays later (and conversely for wet signs). It returns
// the number of scored reports.
func ScoreReports(reports []Report, days []climate.Day, truth *climate.Truth, tracker *InformantTracker) (int, error) {
	if len(days) == 0 || truth == nil || len(truth.InDrought) != len(days) {
		return 0, fmt.Errorf("ik: series and truth must align")
	}
	catalogue := CatalogueBySlug()
	indexOf := make(map[int64]int, len(days))
	for i, d := range days {
		indexOf[d.Date.Unix()] = i
	}
	scored := 0
	for _, r := range reports {
		ind, ok := catalogue[r.Indicator]
		if !ok {
			continue
		}
		di, ok := indexOf[r.Time.Unix()]
		if !ok {
			continue
		}
		ahead := di + ind.LeadTimeDays
		if ahead >= len(days) {
			continue // cannot verify yet
		}
		var hit bool
		if ind.Polarity == PolarityDry {
			hit = truth.InDrought[ahead]
		} else {
			hit = !truth.InDrought[ahead]
		}
		tracker.Observe(r.Informant, hit)
		scored++
	}
	return scored, nil
}

// ConsensusStrength aggregates reports of one indicator over a window
// into a single [0,1] signal: reliability-weighted mean strength damped
// by how few distinct informants contributed (one voice is weak
// evidence). Used by the IK-only forecaster.
func ConsensusStrength(reports []Report, tracker *InformantTracker) float64 {
	if len(reports) == 0 {
		return 0
	}
	var wsum, sum float64
	informants := make(map[string]bool)
	for _, r := range reports {
		w := 0.6
		if tracker != nil {
			w = tracker.Reliability(r.Informant)
		}
		wsum += w
		sum += w * r.Strength
		informants[r.Informant] = true
	}
	if wsum == 0 {
		return 0
	}
	mean := sum / wsum
	// Damping: 1 informant → ×0.5, 2 → ×0.75, 3+ → ×~0.9+.
	damp := 1 - math.Pow(0.5, float64(len(informants)))
	return clamp01(mean * damp)
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
