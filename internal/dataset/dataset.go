// Package dataset synthesizes the Nakdong-River-style monitoring dataset
// used by the case study. The paper's dataset (13 years of measurements at
// nine stations, 1996–2008) is not publicly distributable, so this package
// generates a statistically analogous stand-in (DESIGN.md §3): seasonal
// meteorology and monsoon rainfall drive per-station water chemistry, the
// hydrological process of Appendix A routes and mixes water bodies to
// station S1, and a hidden "true" biological process — the manual model of
// equations (1) and (2) plus the revisions the paper reports discovering
// (a pH/alkalinity/conductivity production term on dBPhy/dt and a
// temperature-dependent zooplankton mortality, cf. equations (7), (8)) —
// generates phytoplankton biomass. Observations are subsampled to the
// paper's measurement regime (weekly nutrients and chlorophyll-a, linearly
// interpolated) and corrupted with noise.
package dataset

import (
	"fmt"
	"math"
	"time"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/river"
	"gmr/internal/stats"
)

// Config controls synthesis.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// StartYear and EndYear bound the daily series (inclusive); zero
	// values mean the paper's 1996 and 2008.
	StartYear, EndYear int
	// TrainEndYear is the last training year (inclusive); zero means the
	// paper's 2005 (training 1996–2005, test 2006–2008).
	TrainEndYear int
	// ObsNoise is the multiplicative lognormal observation noise sigma
	// on biomass; zero means 0.12.
	ObsNoise float64
	// SampleEvery is the measurement interval in days for nutrients and
	// chlorophyll-a at S1 (linearly interpolated in between); zero means
	// the paper's weekly 7.
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.StartYear == 0 {
		c.StartYear = 1996
	}
	if c.EndYear == 0 {
		c.EndYear = 2008
	}
	if c.TrainEndYear == 0 {
		c.TrainEndYear = 2005
	}
	if c.ObsNoise == 0 {
		c.ObsNoise = 0.12
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 7
	}
	return c
}

// Dataset is the generated study dataset at station S1 plus the raw
// per-station series used by the "-All" baseline variants.
type Dataset struct {
	// Days is the number of daily records.
	Days int
	// Dates holds the ISO date of each record.
	Dates []string
	// TrainEnd is the index of the first test day.
	TrainEnd int
	// Forcing is the model-visible S1 forcing: Forcing[t] is a
	// bio.NumVars-wide vector in bio.VarIndex layout. Columns 0 and 1
	// carry the observed BPhy and BZoo for reference; the simulator
	// overrides them with model state.
	Forcing [][]float64
	// TrueForcing is the noise-free daily forcing that generated the
	// truth (no subsampling/interpolation). Used only by diagnostics.
	TrueForcing [][]float64
	// ObsPhy and ObsZoo are the observed (noisy, interpolated) biomasses
	// at S1 — the modeling targets.
	ObsPhy, ObsZoo []float64
	// TruePhy and TrueZoo are the noise-free generated biomasses.
	TruePhy, TrueZoo []float64
	// StationRaw maps each real station name to its local daily series
	// of the ten temporal variables (bio.Variables order).
	StationRaw map[string][][]float64
	// TruthConstants records the hidden parameter vector used by the
	// generating process (bio.DefaultConstants order), for diagnostics.
	TruthConstants []float64
}

// TruthPhyDeriv returns the hidden revised dBPhy/dt of the generating
// process: the manual equation (1) with a pH-linked modulation of the
// photosynthetic growth rate, µPhy + 0.06·(Vph − 7.2). This realizes the
// paper's finding that pH connects to the algal growth process (Section
// IV-E and equation (8)) as a rate-level revision at extension point Ext3,
// reachable through the Table II grammar (connector + with lexeme Vph, then
// extenders − and ×).
func TruthPhyDeriv() *expr.Node {
	phy := bio.PhyDeriv()
	phy.Walk(func(n *expr.Node) bool {
		if n.Sym == "Ext3" {
			rev := expr.Add(n.Clone(),
				expr.Mul(expr.NewLit(0.06), expr.Sub(expr.NewVar("Vph"), expr.NewLit(7.2))))
			rev.Sym = "Ext3"
			*n = *rev
			return false
		}
		return true
	})
	return phy
}

// TruthZooDeriv returns the hidden revised dBZoo/dt: the manual equation
// (2) with temperature-dependent zooplankton mortality replacing the
// constant CDZ — CDZ·(0.05·Vtmp + 0.3) — analogous to the paper's
// discovered equation (7), reachable at extension point Ext9.
func TruthZooDeriv() *expr.Node {
	zoo := bio.ZooDeriv()
	zoo.Walk(func(n *expr.Node) bool {
		if n.Sym == "Ext9" {
			rev := expr.Mul(expr.NewParam("CDZ"),
				expr.Add(expr.Mul(expr.NewLit(0.05), expr.NewVar("Vtmp")), expr.NewLit(0.3)))
			rev.Sym = "Ext9"
			*n = *rev
			return false
		}
		return true
	})
	return zoo
}

// TruthParams returns the hidden constant-parameter vector of the
// generating process: Table III means with a stable, bloom-forming
// parameterization (tamed growth, sharper thermal niche, stronger grazing,
// summer-limiting phosphorus half-saturation).
func TruthParams(consts []bio.Constant) []float64 {
	params := bio.Means(consts)
	pi := bio.ParamIndex(consts)
	set := func(k string, v float64) { params[pi[k]] = v }
	set("CUA", 0.82)
	set("CBRA", 0.16)
	set("CPT", 0.045)
	set("CMFR", 0.7)
	set("CUZ", 0.28)
	set("CBRZ", 0.06)
	set("CDZ", 0.05)
	set("CP", 0.015)
	return params
}

// BiomassFloor and BiomassCap bound both state variables in the generating
// process and in every model evaluation. The cap plays the role of the
// self-shading/washout limitation that the transported-forcing design
// cannot express (the process family of equations (1)–(2) has no
// density-dependent loss, so sustained µ>γ grows without bound); treating
// the bounds as part of the simulator specification keeps the comparison
// fair — every method, from MANUAL to GMR, runs under the same clamps.
const (
	BiomassFloor = 1.0
	BiomassCap   = 220.0
)

// TruthSimConfig is the integration configuration of the generating
// process.
func TruthSimConfig(phy0, zoo0 float64) bio.SimConfig {
	return ModelSimConfig(4, phy0, zoo0)
}

// ModelSimConfig is the shared simulation regime for evaluating any
// candidate process model against this dataset.
func ModelSimConfig(subSteps int, phy0, zoo0 float64) bio.SimConfig {
	return bio.SimConfig{
		SubSteps: subSteps,
		Phy0:     phy0, Zoo0: zoo0,
		ClampMin: BiomassFloor, ClampMax: BiomassCap,
	}
}

// chemistry attribute order used during routing (the transported subset of
// bio.Variables; Vlgt and Vtmp are local meteorology at S1).
var chemNames = []string{"Vn", "Vp", "Vsi", "Vdo", "Vcd", "Vph", "Valk", "Vsd"}

// Generate synthesizes a dataset.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRand(cfg.Seed)

	start := time.Date(cfg.StartYear, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(cfg.EndYear, 12, 31, 0, 0, 0, 0, time.UTC)
	days := int(end.Sub(start).Hours()/24) + 1
	if days <= 0 {
		return nil, fmt.Errorf("dataset: empty period %d–%d", cfg.StartYear, cfg.EndYear)
	}
	trainEnd := int(time.Date(cfg.TrainEndYear+1, 1, 1, 0, 0, 0, 0, time.UTC).Sub(start).Hours() / 24)
	if trainEnd <= 0 || trainEnd >= days {
		return nil, fmt.Errorf("dataset: train end year %d outside period", cfg.TrainEndYear)
	}

	dates := make([]string, days)
	dayOfYear := make([]float64, days)
	for d := 0; d < days; d++ {
		t := start.AddDate(0, 0, d)
		dates[d] = t.Format("2006-01-02")
		dayOfYear[d] = float64(t.YearDay())
	}

	// Regional weather: seasonal temperature and irradiance with AR(1)
	// weather noise, monsoon rainfall (summer-heavy storm process).
	season := func(d int) float64 { return math.Sin(2 * math.Pi * (dayOfYear[d] - 110) / 365) }
	airTmp := make([]float64, days)
	light := make([]float64, days)
	rain := make([]float64, days)
	arT, arL := 0.0, 0.0
	for d := 0; d < days; d++ {
		s := season(d)
		arT = 0.85*arT + rng.NormFloat64()*1.0
		arL = 0.7*arL + rng.NormFloat64()*2.0
		airTmp[d] = 14.5 + 11.5*s + arT
		light[d] = math.Max(1.5, 15+11*s+arL)
		// Storm process: summer monsoon raises both frequency and size.
		pStorm := 0.08 + 0.18*math.Max(0, s)
		if rng.Float64() < pStorm {
			rain[d] = rng.ExpFloat64() * (8 + 30*math.Max(0, s))
		}
	}

	// Per-station local chemistry. Tributaries are smaller and more
	// nutrient-enriched (agricultural catchments); the main channel
	// dilutes downstream.
	net := river.Nakdong()
	enrich := map[string]float64{
		"S6": 1.0, "S5": 0.95, "S4": 0.95, "S3": 0.9, "S2": 0.9, "S1": 0.85,
		"T1": 1.5, "T2": 1.6, "T3": 1.4,
	}
	in := &river.Inputs{
		Rain:     map[string][]float64{},
		Attr:     map[string][][]float64{},
		RainAttr: map[string][]float64{},
	}
	// Rain runoff carries enriched N/P (field washoff), dilute ions, and
	// high turbidity (low transparency).
	rainAttr := []float64{4.0, 0.12, 4.5, 9.0, 1.2, 7.3, 2.5, 0.3}
	stationOrder := []string{"S1", "S2", "S3", "S4", "S5", "S6", "T1", "T2", "T3"}
	for _, name := range stationOrder {
		e := enrich[name]
		srng := stats.Split(rng)
		attr := make([][]float64, days)
		for d := 0; d < days; d++ {
			s := season(d)
			wn := func(sd float64) float64 { return srng.NormFloat64() * sd }
			attr[d] = []float64{
				e * (2.5 + 0.3*wn(1)),                        // Vn
				math.Max(0.004, e*(0.05-0.04*s)+0.006*wn(1)), // Vp: summer drawdown
				e * (3 + 0.3*wn(1)),                          // Vsi
				10 - 3*s + 0.4*wn(1),                         // Vdo
				e * (3 + 0.8*s + 0.2*wn(1)),                  // Vcd
				8 + 0.5*s + 0.15*wn(1),                       // Vph
				e * (5 + 0.5*wn(1)),                          // Valk
				math.Max(0.2, 1.5-0.5*s+0.2*wn(1)),           // Vsd
			}
		}
		in.Attr[name] = attr
		in.Rain[name] = rain
		in.RainAttr[name] = rainAttr
	}
	routed, err := net.Route(in, days, len(chemNames))
	if err != nil {
		return nil, err
	}

	// Assemble the noise-free daily forcing at S1: routed chemistry plus
	// local meteorology. Water temperature tracks air temperature with
	// thermal inertia.
	vi := bio.VarIndex()
	trueForcing := make([][]float64, days)
	wTmp := airTmp[0]
	s1chem := routed.Attr["S1"]
	for d := 0; d < days; d++ {
		wTmp += 0.25 * (airTmp[d] - wTmp)
		row := make([]float64, bio.NumVars)
		row[vi["Vlgt"]] = light[d]
		row[vi["Vtmp"]] = math.Max(0.5, wTmp)
		for k, name := range chemNames {
			row[vi[name]] = s1chem[d][k]
		}
		trueForcing[d] = row
	}

	// Integrate the hidden true process over the noise-free forcing.
	consts := bio.DefaultConstants()
	pi := bio.ParamIndex(consts)
	truthPhy, truthZoo := TruthPhyDeriv(), TruthZooDeriv()
	if err := expr.Bind(truthPhy, vi, pi); err != nil {
		return nil, err
	}
	if err := expr.Bind(truthZoo, vi, pi); err != nil {
		return nil, err
	}
	truthSys, err := bio.NewSegSystem(truthPhy, truthZoo)
	if err != nil {
		return nil, err
	}
	params := TruthParams(consts)
	simCfg := TruthSimConfig(8, 1.5)
	// Euler substeps as in bio's Kernel, tracking both state variables
	// (the kernel reports only BPhy).
	truePhy := make([]float64, 0, days)
	trueZoo := make([]float64, 0, days)
	{
		bphy, bzoo := simCfg.Phy0, simCfg.Zoo0
		plan := truthSys.BuildExogPlan(trueForcing)
		var sc bio.SimScratch
		truthSys.Prologue(params, &sc)
		h := 1.0 / float64(simCfg.SubSteps)
		for d := 0; d < days; d++ {
			truthSys.Day(plan, d, &sc)
			for stp := 0; stp < simCfg.SubSteps; stp++ {
				dp, dz := truthSys.Derivs(bphy, bzoo, &sc)
				bphy = stats.Clamp(bphy+h*dp, simCfg.ClampMin, simCfg.ClampMax)
				bzoo = stats.Clamp(bzoo+h*dz, simCfg.ClampMin, simCfg.ClampMax)
			}
			truePhy = append(truePhy, bphy)
			trueZoo = append(trueZoo, bzoo)
		}
	}

	// Observation model: multiplicative lognormal noise, then the
	// paper's sampling regime — biomass and nutrients measured every
	// SampleEvery days at S1 and linearly interpolated in between.
	noisy := func(xs []float64, sigma float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * math.Exp(rng.NormFloat64()*sigma)
		}
		return out
	}
	obsPhy := interpolateSampled(noisy(truePhy, cfg.ObsNoise), cfg.SampleEvery)
	obsZoo := interpolateSampled(noisy(trueZoo, cfg.ObsNoise), cfg.SampleEvery)

	// Model-visible forcing: daily variables get mild sensor noise;
	// nutrients are subsampled and interpolated like the observations.
	forcing := make([][]float64, days)
	for d := 0; d < days; d++ {
		row := append([]float64(nil), trueForcing[d]...)
		row[bio.IdxBPhy] = obsPhy[d]
		row[bio.IdxBZoo] = obsZoo[d]
		forcing[d] = row
	}
	for _, nutrient := range []string{"Vn", "Vp", "Vsi"} {
		col := vi[nutrient]
		series := make([]float64, days)
		for d := 0; d < days; d++ {
			series[d] = trueForcing[d][col] * math.Exp(rng.NormFloat64()*0.05)
		}
		series = interpolateSampled(series, cfg.SampleEvery)
		for d := 0; d < days; d++ {
			forcing[d][col] = series[d]
		}
	}

	// Raw per-station series for the "-All" data-driven variants:
	// local chemistry plus shared meteorology, daily.
	stationRaw := map[string][][]float64{}
	for si, name := range stationOrder {
		raw := make([][]float64, days)
		attr := in.Attr[name]
		// Each station's meteorology differs slightly (latitude and
		// microclimate): a fixed offset plus independent weather noise,
		// so the -All feature matrices are full rank.
		srng := stats.Split(rng)
		tmpOff := 0.4 * float64(si-4)
		lgtOff := 0.3 * float64(si-4)
		for d := 0; d < days; d++ {
			row := make([]float64, len(bio.Variables()))
			// bio.Variables order: Vlgt Vn Vp Vsi Vtmp Vdo Vcd Vph Valk Vsd.
			row[0] = math.Max(0.5, light[d]+lgtOff+0.5*srng.NormFloat64())
			row[4] = airTmp[d] + tmpOff + 0.3*srng.NormFloat64()
			row[1], row[2], row[3] = attr[d][0], attr[d][1], attr[d][2]
			row[5], row[6], row[7], row[8], row[9] = attr[d][3], attr[d][4], attr[d][5], attr[d][6], attr[d][7]
			raw[d] = row
		}
		stationRaw[name] = raw
	}

	return &Dataset{
		Days:           days,
		Dates:          dates,
		TrainEnd:       trainEnd,
		Forcing:        forcing,
		TrueForcing:    trueForcing,
		ObsPhy:         obsPhy,
		ObsZoo:         obsZoo,
		TruePhy:        truePhy,
		TrueZoo:        trueZoo,
		StationRaw:     stationRaw,
		TruthConstants: params,
	}, nil
}

// interpolateSampled keeps every step-th value (and the final one) and
// linearly interpolates in between, emulating the paper's measurement
// regime for weekly/bi-weekly variables.
func interpolateSampled(xs []float64, step int) []float64 {
	if step <= 1 || len(xs) == 0 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, len(xs))
	prevIdx := 0
	out[0] = xs[0]
	for i := step; i < len(xs)+step; i += step {
		idx := i
		if idx >= len(xs) {
			idx = len(xs) - 1
		}
		if idx == prevIdx {
			break
		}
		for j := prevIdx + 1; j <= idx; j++ {
			frac := float64(j-prevIdx) / float64(idx-prevIdx)
			out[j] = xs[prevIdx] + frac*(xs[idx]-xs[prevIdx])
		}
		out[idx] = xs[idx]
		prevIdx = idx
	}
	return out
}

// Train/Test accessors.

// TrainForcing returns the training-period forcing rows (shared backing
// array; do not mutate).
func (d *Dataset) TrainForcing() [][]float64 { return d.Forcing[:d.TrainEnd] }

// TestForcing returns the test-period forcing rows.
func (d *Dataset) TestForcing() [][]float64 { return d.Forcing[d.TrainEnd:] }

// TrainObsPhy returns the training-period observed biomass.
func (d *Dataset) TrainObsPhy() []float64 { return d.ObsPhy[:d.TrainEnd] }

// TestObsPhy returns the test-period observed biomass.
func (d *Dataset) TestObsPhy() []float64 { return d.ObsPhy[d.TrainEnd:] }
