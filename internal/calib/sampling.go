package calib

import (
	"math"
	"math/rand"

	"gmr/internal/stats"
)

// MC is plain Monte Carlo search: uniform random points in the box, keep
// the best.
type MC struct{}

// NewMC returns the Monte Carlo calibrator.
func NewMC() *MC { return &MC{} }

// Name implements Calibrator.
func (*MC) Name() string { return "MC" }

// sampleCohort is how many points MC and LHS score per batch-objective
// call: large enough to fill every lane batch many times over, small
// enough that memory stays fixed however large the budget (the paper's
// 120k evaluations included).
const sampleCohort = 256

// Calibrate implements Calibrator by delegating to CalibrateBatch over a
// scalar objective.
func (m *MC) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	return m.CalibrateBatch(ScalarBatch(obj), lo, hi, budget, rng)
}

// CalibrateBatch implements BatchCalibrator: points are drawn in cohorts
// of sampleCohort and each cohort is scored in one call. Scoring consumes
// no randomness, so the draws — and the result — match one-at-a-time
// sampling exactly. The first point seeds the best and a later point
// replaces it only when strictly better, so ties (and a NaN first score)
// keep the earliest point.
func (*MC) CalibrateBatch(obj BatchObjective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	if budget < 1 {
		budget = 1
	}
	var best []float64
	var bestF float64
	pts := make([][]float64, 0, sampleCohort)
	var fs []float64
	for done := 0; done < budget; done += len(pts) {
		pts = pts[:0]
		for i := done; i < budget && len(pts) < sampleCohort; i++ {
			pts = append(pts, uniformBox(rng, lo, hi))
		}
		fs = obj(pts, fs[:0])
		for i, f := range fs {
			if done+i == 0 || f < bestF {
				best, bestF = pts[i], f
			}
		}
	}
	return best, bestF
}

// LHS is Latin hypercube sampling: a space-filling design of exactly budget
// points, one per stratum in every dimension.
type LHS struct{}

// NewLHS returns the Latin hypercube calibrator.
func NewLHS() *LHS { return &LHS{} }

// Name implements Calibrator.
func (*LHS) Name() string { return "LHS" }

// Calibrate implements Calibrator by delegating to CalibrateBatch over a
// scalar objective.
func (l *LHS) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	return l.CalibrateBatch(ScalarBatch(obj), lo, hi, budget, rng)
}

// CalibrateBatch implements BatchCalibrator. The design is drawn whole
// (stratification spans the full budget), then mapped into the box and
// scored in cohorts of sampleCohort points; a point replaces the best only
// when strictly better, so ties keep the earliest point and NaN scores
// never win.
func (*LHS) CalibrateBatch(obj BatchObjective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	if budget < 1 {
		budget = 1
	}
	unit := stats.LatinHypercube(rng, budget, len(lo))
	var best []float64
	bestF := math.Inf(1)
	pts := make([][]float64, 0, sampleCohort)
	var fs []float64
	for done := 0; done < len(unit); done += len(pts) {
		pts = pts[:0]
		for _, u := range unit[done:min(done+sampleCohort, len(unit))] {
			x := make([]float64, len(lo))
			for j := range x {
				x[j] = lo[j] + u[j]*(hi[j]-lo[j])
			}
			pts = append(pts, x)
		}
		fs = obj(pts, fs[:0])
		for i, f := range fs {
			if f < bestF {
				best, bestF = pts[i], f
			}
		}
	}
	return best, bestF
}
