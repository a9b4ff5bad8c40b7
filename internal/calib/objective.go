package calib

import (
	"math"

	"gmr/internal/bio"
	"gmr/internal/metrics"
)

// RiverObjective builds the case study's calibration objective: training
// RMSE of the fixed manual biological process of equations (1) and (2)
// under the candidate parameter vector. Only the parameters vary — the
// model structure never does, which is exactly what separates model
// calibration from model revision in Table I. It is the scalar half of
// RiverObjectives; like its batch form, the returned closure reuses
// internal buffers and is not safe for concurrent calls.
func RiverObjective(forcing [][]float64, obs []float64, sim bio.SimConfig) (Objective, error) {
	objs, err := RiverObjectives(forcing, obs, sim)
	return objs.Scalar, err
}

// RiverObjectives builds the river objective in both forms over one
// compiled manual process and one hoisted exogenous plan (see
// StructureObjectives).
func RiverObjectives(forcing [][]float64, obs []float64, sim bio.SimConfig) (Objectives, error) {
	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		return Objectives{}, err
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		return Objectives{}, err
	}
	return StructureObjectives(sys, forcing, obs, sim), nil
}

// StructureObjectives is the calibration objective of an arbitrary compiled
// structure — training RMSE of sys under the candidate parameter vector —
// in both forms. The exogenous plan is hoisted once over the training
// window and shared. Scalar runs the segmented kernel (one Prologue+Kernel
// per vector); Batch scores a whole population on the lane driver
// (bio.SegSystem.RunLanes), every STEP instruction dispatched once per
// expr.Lanes parameter vectors instead of once per vector (DESIGN.md §11).
// The two agree bitwise (the lane kernel reproduces the scalar kernel bit for bit, and aborted members
// yield the same truncated NaN-terminated prediction series). Posterior
// sampling around a revised champion uses the batch form (gmr
// -export-model -posterior N): the structure is the GP winner's, only its
// parameters vary. Each closure reuses its own internal buffers and is not
// safe for concurrent calls.
func StructureObjectives(sys *bio.SegSystem, forcing [][]float64, obs []float64, sim bio.SimConfig) Objectives {
	plan := sys.BuildExogPlan(forcing)
	var sc bio.SimScratch
	scalar := func(params []float64) float64 {
		sys.Prologue(params, &sc)
		return metrics.RMSE(sys.Kernel(plan, sim, &sc, nil), obs)
	}
	var lsc bio.SimScratch
	var preds [][]float64
	batch := func(params [][]float64, out []float64) []float64 {
		for len(preds) < len(params) {
			preds = append(preds, nil)
		}
		for i := range params {
			preds[i] = preds[i][:0]
		}
		sys.RunLanes(plan, params, sim, &lsc, func(m, t int, bphy float64) bool {
			// The scalar kernel records NaN for the day a member's state
			// goes non-finite and stops; mirror that here so RMSE sees the
			// same truncated series.
			if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
				preds[m] = append(preds[m], math.NaN())
				return false
			}
			preds[m] = append(preds[m], bphy)
			return true
		}, nil)
		for i := range params {
			out = append(out, metrics.RMSE(preds[i], obs))
		}
		return out
	}
	return Objectives{Scalar: scalar, Batch: batch}
}

// Box extracts the lower/upper calibration bounds from Table III constants.
func Box(consts []bio.Constant) (lo, hi []float64) {
	lo = make([]float64, len(consts))
	hi = make([]float64, len(consts))
	for i, c := range consts {
		lo[i], hi[i] = c.Min, c.Max
	}
	return lo, hi
}
