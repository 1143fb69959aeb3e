package dews

import (
	"fmt"
	"strings"

	"repro/internal/forecast"
)

// AblationResult is one fusion-variant row.
type AblationResult struct {
	Variant string
	Verif   forecast.Verification
}

// RunFusionAblation runs one simulation with issue recording and then
// re-scores fusion variants offline, answering one design question: how
// much of the fused forecaster's skill comes from each evidence stream?
//
// Variants:
//
//	full          sensor + IK + CEP (the paper's method)
//	no-cep        sensor + IK logits only
//	no-ik         sensor + CEP only
//	no-sensor     IK + CEP only
//	sensor-only   the plain statistical baseline (reference)
func RunFusionAblation(cfg Config) ([]AblationResult, *Result, error) {
	cfg.RecordIssues = true
	system, err := NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := system.Run()
	if err != nil {
		return nil, nil, err
	}
	if len(res.Issues) == 0 {
		return nil, nil, fmt.Errorf("dews: ablation run produced no issues")
	}
	sensor := res.CalibratedSensor
	ikOnly := forecast.IKOnly{BaseRate: res.TrainBase}

	variants := []struct {
		name string
		fc   forecast.Forecaster
	}{
		{"full", forecast.Fused{Sensor: sensor, IK: ikOnly}},
		{"no-cep", forecast.Fused{Sensor: sensor, IK: ikOnly, WCEP: -1}},
		{"no-ik", forecast.Fused{Sensor: sensor, IK: ikOnly, WIK: -1}},
		{"no-sensor", forecast.Fused{Sensor: sensor, IK: ikOnly, WSensor: -1}},
		{"sensor-only", &sensor},
	}
	lead := cfg.LeadDays
	if lead == 0 {
		lead = 30
	}
	out := make([]AblationResult, 0, len(variants))
	for _, v := range variants {
		out = append(out, AblationResult{
			Variant: v.name,
			Verif:   Evaluate(v.name, v.fc, res.Issues, cfg.DecisionThreshold, lead),
		})
	}
	return out, res, nil
}

// FormatAblationTable renders the ablation rows.
func FormatAblationTable(rows []AblationResult) string {
	var sb strings.Builder
	sb.WriteString("fusion ablation (offline re-scoring of one simulation):\n")
	for _, r := range rows {
		sb.WriteString("  " + r.Verif.Row() + "\n")
	}
	return sb.String()
}
