// Package climate provides the synthetic Free State climate substrate:
// a stochastic daily weather generator with seasonality and ENSO-like
// multi-year forcing, a soil-moisture bucket model, the standardized
// precipitation index (SPI), and an SPI-based drought ground-truth
// labeller.
//
// The paper's evaluation domain is the Free State province, a summer-
// rainfall region (wet season roughly October–March, ~550 mm/yr). The
// generator is calibrated to that regime so that forecast-skill
// experiments (EXP-C1) run against drought episodes with realistic
// persistence. It stands in for real Free State rainfall records, which
// the paper does not publish.
package climate

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Day is one day of simulated weather at one site.
type Day struct {
	// Date is the calendar date (UTC midnight).
	Date time.Time
	// RainMM is the daily rainfall depth in millimetres.
	RainMM float64
	// TempC is the daily mean air temperature in °C.
	TempC float64
	// SoilMoisture is the volumetric soil water fraction in [0,1].
	SoilMoisture float64
	// RelHumidity is the relative humidity in percent.
	RelHumidity float64
	// WindSpeedMS is the wind speed in m/s.
	WindSpeedMS float64
	// NDVI is the vegetation index in [0,1].
	NDVI float64
	// WaterLevelM is the reservoir/river stage in metres.
	WaterLevelM float64
	// ENSO is the slowly-varying forcing anomaly in roughly [-1,1]
	// (negative = La Niña-like wet, positive = El Niño-like dry).
	ENSO float64
}

// Params configures the generator. The zero value is not useful; start
// from DefaultParams.
type Params struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// StartDate is the first simulated day.
	StartDate time.Time
	// AnnualRainMM is the target climatological annual rainfall.
	AnnualRainMM float64
	// WetSeasonPeakDOY is the day-of-year of the rainfall peak
	// (~January 15 = 15 for the Free State).
	WetSeasonPeakDOY int
	// TempMeanC / TempAmplitudeC shape the seasonal temperature cycle.
	TempMeanC      float64
	TempAmplitudeC float64
	// ENSOPeriodYears is the pseudo-period of the multi-year forcing.
	ENSOPeriodYears float64
	// ENSOStrength scales how strongly the forcing modulates rainfall
	// occurrence (0 disables it).
	ENSOStrength float64
	// SoilCapacityMM is the bucket size of the soil model.
	SoilCapacityMM float64
}

// DefaultParams returns a Free State-like parameterization.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:             seed,
		StartDate:        time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC),
		AnnualRainMM:     550,
		WetSeasonPeakDOY: 15,
		TempMeanC:        16,
		TempAmplitudeC:   9,
		ENSOPeriodYears:  4.2,
		ENSOStrength:     0.55,
		SoilCapacityMM:   120,
	}
}

// Generator produces a daily weather series. It is not safe for
// concurrent use; create one per goroutine.
type Generator struct {
	p       Params
	rng     *rand.Rand
	day     int
	wet     bool    // yesterday's rain state (Markov chain)
	soilMM  float64 // bucket storage
	tempAn  float64 // AR(1) temperature anomaly
	ndvi    float64
	levelM  float64
	ensoPhi float64 // random phase for the ENSO oscillation
}

// NewGenerator returns a generator with the given parameters.
func NewGenerator(p Params) (*Generator, error) {
	if p.AnnualRainMM <= 0 {
		return nil, fmt.Errorf("climate: AnnualRainMM must be positive, got %v", p.AnnualRainMM)
	}
	if p.SoilCapacityMM <= 0 {
		return nil, fmt.Errorf("climate: SoilCapacityMM must be positive, got %v", p.SoilCapacityMM)
	}
	if p.StartDate.IsZero() {
		return nil, fmt.Errorf("climate: StartDate must be set")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	return &Generator{
		p:       p,
		rng:     rng,
		soilMM:  p.SoilCapacityMM * 0.5,
		ndvi:    0.45,
		levelM:  3.0,
		ensoPhi: rng.Float64() * 2 * math.Pi,
	}, nil
}

// seasonality returns the rainfall seasonality factor in [0,1] for a
// day-of-year: 1 at the wet-season peak, ~0 mid-winter.
func (g *Generator) seasonality(doy int) float64 {
	phase := 2 * math.Pi * float64(doy-g.p.WetSeasonPeakDOY) / 365
	return 0.5 * (1 + math.Cos(phase))
}

// enso returns the slowly varying forcing for absolute day index d.
func (g *Generator) enso(d int) float64 {
	if g.p.ENSOStrength == 0 {
		return 0
	}
	years := float64(d) / 365.25
	return math.Sin(2*math.Pi*years/g.p.ENSOPeriodYears + g.ensoPhi)
}

// Next generates the next day.
func (g *Generator) Next() Day {
	date := g.p.StartDate.AddDate(0, 0, g.day)
	doy := date.YearDay()
	season := g.seasonality(doy)
	enso := g.enso(g.day)

	// --- rainfall: 2-state Markov occurrence + gamma-ish amounts ---
	// Base wet probability scales with seasonality; ENSO>0 suppresses it.
	pWet := 0.12 + 0.38*season
	pWet *= 1 - g.p.ENSOStrength*0.6*enso
	// Persistence: wetter after a wet day.
	if g.wet {
		pWet = math.Min(0.95, pWet*1.9)
	}
	pWet = clamp(pWet, 0.01, 0.95)

	var rain float64
	if g.rng.Float64() < pWet {
		g.wet = true
		// Amount: sum of two exponentials approximates a gamma with
		// shape 2; scaled so the annual total matches AnnualRainMM.
		meanWetDays := 365 * (0.12 + 0.38*0.5) * 1.35 // rough expected wet days
		meanAmount := g.p.AnnualRainMM / meanWetDays
		rain = meanAmount / 2 * (g.rng.ExpFloat64() + g.rng.ExpFloat64())
		rain *= 1 - 0.3*g.p.ENSOStrength*enso // dry phases also shrink events
		if rain < 0.1 {
			rain = 0.1
		}
	} else {
		g.wet = false
	}

	// --- temperature: seasonal cycle + AR(1) anomaly + ENSO warm bias ---
	seasonalTemp := g.p.TempMeanC + g.p.TempAmplitudeC*math.Cos(2*math.Pi*float64(doy-15)/365)
	g.tempAn = 0.82*g.tempAn + g.rng.NormFloat64()*1.6
	temp := seasonalTemp + g.tempAn + 1.2*enso
	if g.wet {
		temp -= 2.0 // rain days are cooler
	}

	// --- soil bucket ---
	// Evapotranspiration rises with temperature and falls with humidity.
	et := clamp(0.06*math.Max(temp, 0)+0.6, 0.4, 4.5)
	g.soilMM += rain - et*math.Sqrt(g.soilMM/g.p.SoilCapacityMM)
	g.soilMM = clamp(g.soilMM, 0, g.p.SoilCapacityMM)
	soil := g.soilMM / g.p.SoilCapacityMM

	// --- humidity, wind ---
	rh := clamp(35+45*soil+8*g.rng.NormFloat64()+boolTo(g.wet, 15), 8, 100)
	wind := math.Abs(2.8 + 1.4*g.rng.NormFloat64() + 0.8*enso)

	// --- NDVI: slow relaxation toward soil-driven equilibrium ---
	targetNDVI := 0.15 + 0.6*soil
	g.ndvi += 0.03 * (targetNDVI - g.ndvi)
	g.ndvi = clamp(g.ndvi+0.005*g.rng.NormFloat64(), 0.05, 0.9)

	// --- water level: slow reservoir response ---
	g.levelM += 0.012*rain - 0.02 - 0.004*math.Max(temp-20, 0)
	g.levelM = clamp(g.levelM, 0.2, 8)

	g.day++
	return Day{
		Date:         date,
		RainMM:       round2(rain),
		TempC:        round2(temp),
		SoilMoisture: round4(soil),
		RelHumidity:  round2(rh),
		WindSpeedMS:  round2(wind),
		NDVI:         round4(g.ndvi),
		WaterLevelM:  round2(g.levelM),
		ENSO:         round4(enso),
	}
}

// GenerateDays produces n consecutive days.
func (g *Generator) GenerateDays(n int) []Day {
	out := make([]Day, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// GenerateYears produces whole 365-day years.
func (g *Generator) GenerateYears(years int) []Day {
	return g.GenerateDays(365 * years)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolTo(b bool, v float64) float64 {
	if b {
		return v
	}
	return 0
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
