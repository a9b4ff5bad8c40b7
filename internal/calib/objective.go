package calib

import (
	"math"
	"runtime"
	"sync"

	"gmr/internal/bio"
	"gmr/internal/expr"
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
//
// Batch splits each cohort across up to runtime.GOMAXPROCS(0) workers (read
// once, here): contiguous ranges whose boundaries fall on expr.Lanes
// multiples, so the split adds no lane launch. The calling goroutine scores
// the first range; the others run on goroutines joined before the scores
// are computed in input order. Each worker owns its scratch and hook, and
// sys and the plan are shared read-only. A cohort of one lane chunk, or a
// GOMAXPROCS of 1, runs serially on the caller with no goroutine. Members
// are independent, so the split never changes a bit: Batch and Scalar agree
// bitwise for any worker count (the lane kernel reproduces the scalar
// kernel bit for bit, and aborted members yield the same truncated
// NaN-terminated prediction series), and a warm Batch call allocates
// nothing. Posterior sampling around a revised champion uses the batch
// form (gmr -export-model -posterior N): the structure is the GP winner's,
// only its parameters vary. Each closure reuses its own internal buffers
// and is not safe for concurrent calls.
func StructureObjectives(sys *bio.SegSystem, forcing [][]float64, obs []float64, sim bio.SimConfig) Objectives {
	plan := sys.BuildExogPlan(forcing)
	var sc bio.SimScratch
	scalar := func(params []float64) float64 {
		sys.Prologue(params, &sc)
		return metrics.RMSE(sys.Kernel(plan, sim, &sc, nil), obs)
	}
	b := newLaneBatch(sys, plan, sim)
	batch := func(params [][]float64, out []float64) []float64 {
		b.score(params)
		for i := range params {
			out = append(out, metrics.RMSE(b.preds[i], obs))
		}
		return out
	}
	return Objectives{Scalar: scalar, Batch: batch}
}

// laneBatch records the prediction series of a cohort, split across
// workers by lane-aligned contiguous ranges (see StructureObjectives).
type laneBatch struct {
	sys    *bio.SegSystem
	plan   *bio.ExogPlan
	sim    bio.SimConfig
	params [][]float64 // the cohort being scored
	preds  [][]float64 // preds[i] is member i's series, reused across calls
	ws     []laneWorker
	wg     sync.WaitGroup
}

// laneWorker scores members [lo, hi) of the cohort on its own scratch.
// hook and run are built once, so scoring allocates nothing per call.
type laneWorker struct {
	sc     bio.SimScratch
	lo, hi int
	hook   bio.LaneHook
	run    func() // goroutine body of workers 1..: score, then wg.Done
}

// newLaneBatch builds one worker per GOMAXPROCS.
func newLaneBatch(sys *bio.SegSystem, plan *bio.ExogPlan, sim bio.SimConfig) *laneBatch {
	b := &laneBatch{sys: sys, plan: plan, sim: sim, ws: make([]laneWorker, runtime.GOMAXPROCS(0))}
	for i := range b.ws {
		w := &b.ws[i]
		w.hook = func(m, t int, bphy float64) bool {
			p := &b.preds[w.lo+m]
			// The scalar kernel records NaN for the day a member's state
			// goes non-finite and stops; mirror that here so RMSE sees the
			// same truncated series.
			if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
				*p = append(*p, math.NaN())
				return false
			}
			*p = append(*p, bphy)
			return true
		}
		w.run = func() {
			b.scoreRange(w)
			b.wg.Done()
		}
	}
	return b
}

// score fills preds[:len(params)] with each member's prediction series.
func (b *laneBatch) score(params [][]float64) {
	for len(b.preds) < len(params) {
		b.preds = append(b.preds, nil)
	}
	for i := range params {
		b.preds[i] = b.preds[i][:0]
	}
	b.params = params
	// Worker i takes chunks/n whole lane chunks, the first chunks%n
	// workers one more; only the last range can end on the ragged tail.
	// With n == 1 the caller scores everything and no goroutine starts.
	chunks := (len(params) + expr.Lanes - 1) / expr.Lanes
	n := max(min(len(b.ws), chunks), 1)
	lo := 0
	for i := 0; i < n; i++ {
		k := chunks / n
		if i < chunks%n {
			k++
		}
		w := &b.ws[i]
		w.lo, w.hi = lo, min(lo+k*expr.Lanes, len(params))
		lo = w.hi
	}
	b.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go b.ws[i].run()
	}
	b.scoreRange(&b.ws[0])
	b.wg.Wait()
}

func (b *laneBatch) scoreRange(w *laneWorker) {
	b.sys.RunLanes(b.plan, b.params[w.lo:w.hi], b.sim, &w.sc, w.hook, nil)
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
