package calib

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/metrics"
	"gmr/internal/stats"
)

// batchCalibrators returns the methods that score whole cohorts per
// objective call.
func batchCalibrators() []BatchCalibrator {
	return []BatchCalibrator{NewGA(), NewMC(), NewLHS(), NewSCEUA(), NewDREAM()}
}

// recordingBatch wraps a scalar objective as a BatchObjective that records
// the width of every batch call, for asserting that population calibrators
// actually batch their cohorts instead of degenerating to width-1 calls.
type recordingBatch struct {
	calls  int
	widths []int
	total  int
}

func (r *recordingBatch) wrap(obj Objective) BatchObjective {
	return func(params [][]float64, out []float64) []float64 {
		r.calls++
		r.widths = append(r.widths, len(params))
		r.total += len(params)
		for _, x := range params {
			out = append(out, obj(x))
		}
		return out
	}
}

func (r *recordingBatch) maxWidth() int {
	w := 0
	for _, v := range r.widths {
		if v > w {
			w = v
		}
	}
	return w
}

// nanFaulted poisons a region of the search space with NaN, the way a
// quarantined simulation scores: calibrators must keep identical batched
// and scalar trajectories even when some cohort members come back NaN.
func nanFaulted(obj Objective) Objective {
	return func(x []float64) float64 {
		if math.Mod(math.Abs(x[0]*1e3), 7) < 1.5 {
			return math.NaN()
		}
		return obj(x)
	}
}

// TestBatchMatchesScalarTrajectory is the core batching property: for every
// BatchCalibrator, Calibrate over a scalar objective and CalibrateBatch over
// the equivalent batch objective must follow the exact same trajectory —
// same RNG stream, bitwise-identical best point and fitness — including
// when the objective injects NaN faults.
func TestBatchMatchesScalarTrajectory(t *testing.T) {
	lo, hi := box(4, -2, 2)
	objs := map[string]Objective{
		"sphere":     sphere([]float64{0.5, -1.2, 1.7, 0.0}),
		"nan-fault":  nanFaulted(sphere([]float64{0.5, -1.2, 1.7, 0.0})),
		"rosenbrock": func(x []float64) float64 { return rosenbrock2(x[:2]) },
	}
	for _, c := range batchCalibrators() {
		for name, obj := range objs {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				xScalar, fScalar := c.Calibrate(obj, lo, hi, 900, rand.New(rand.NewSource(13)))
				rec := &recordingBatch{}
				xBatch, fBatch := c.CalibrateBatch(rec.wrap(obj), lo, hi, 900, rand.New(rand.NewSource(13)))
				if math.Float64bits(fScalar) != math.Float64bits(fBatch) {
					t.Fatalf("fitness diverged: scalar %v, batch %v", fScalar, fBatch)
				}
				if len(xScalar) != len(xBatch) {
					t.Fatalf("dimension diverged: %d vs %d", len(xScalar), len(xBatch))
				}
				for i := range xScalar {
					if math.Float64bits(xScalar[i]) != math.Float64bits(xBatch[i]) {
						t.Fatalf("coordinate %d diverged: scalar %v, batch %v", i, xScalar[i], xBatch[i])
					}
				}
				if rec.maxWidth() < 2 {
					t.Errorf("batch objective never saw a cohort: widths %v", rec.widths)
				}
				if rec.total > 900+60 {
					t.Errorf("batch path scored %d vectors for a budget of 900", rec.total)
				}
			})
		}
	}
}

// TestBatchBudgetExact verifies the batch entry point's budget accounting:
// total vectors scored equals what the scalar path would consume, and no
// phase overruns the budget by more than a warm-up cohort.
func TestBatchBudgetExact(t *testing.T) {
	lo, hi := box(3, 0, 1)
	obj := sphere([]float64{0.5, 0.5, 0.5})
	for _, c := range batchCalibrators() {
		scalarCount := 0
		counted := func(x []float64) float64 {
			scalarCount++
			return obj(x)
		}
		c.Calibrate(counted, lo, hi, 500, rand.New(rand.NewSource(9)))
		rec := &recordingBatch{}
		c.CalibrateBatch(rec.wrap(obj), lo, hi, 500, rand.New(rand.NewSource(9)))
		if rec.total != scalarCount {
			t.Errorf("%s: batch scored %d vectors, scalar path %d", c.Name(), rec.total, scalarCount)
		}
	}
}

// TestScalarBatchAppends pins the BatchObjective contract: scores are
// appended to out, preserving anything already there.
func TestScalarBatchAppends(t *testing.T) {
	b := ScalarBatch(func(x []float64) float64 { return x[0] })
	out := []float64{-1}
	out = b([][]float64{{2}, {3}}, out)
	if len(out) != 3 || out[0] != -1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("ScalarBatch append contract violated: %v", out)
	}
}

// riverFixture is a short river calibration problem: a three-year
// dataset, its Table III box and the manual process's simulation config.
func riverFixture(t *testing.T) (forcing [][]float64, obs []float64, sim bio.SimConfig, lo, hi []float64) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = Box(bio.DefaultConstants())
	sim = bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	return ds.TrainForcing(), ds.TrainObsPhy(), sim, lo, hi
}

// TestRiverBatchObjectiveMatchesScalar checks the lane-batched river
// objective bit for bit against the scalar segmented-kernel objective and
// against tree interpretation of the manual process, across
// random in-box vectors and the box corners (clamped, not aborted, under
// the default clamps; TestRiverBatchSplitParity covers aborts).
func TestRiverBatchObjectiveMatchesScalar(t *testing.T) {
	forcing, obs, sim, lo, hi := riverFixture(t)
	objs, err := RiverObjectives(forcing, obs, sim)
	if err != nil {
		t.Fatal(err)
	}
	scalar, batch := objs.Scalar, objs.Batch
	rng := rand.New(rand.NewSource(21))
	var params [][]float64
	for i := 0; i < 2*expr.Lanes+3; i++ { // odd width: full lanes + ragged tail
		params = append(params, uniformBox(rng, lo, hi))
	}
	params = append(params, lo, hi) // box corners stress the integrator
	out := batch(params, nil)
	if len(out) != len(params) {
		t.Fatalf("batch returned %d scores for %d vectors", len(out), len(params))
	}
	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	tree := bio.NewTreeSystem(phy, zoo)
	for i, x := range params {
		want := scalar(x)
		if math.Float64bits(want) != math.Float64bits(out[i]) {
			t.Errorf("vector %d: scalar %v, batch %v", i, want, out[i])
		}
		if oracle := metrics.RMSE(tree.Predict(forcing, x, sim), obs); math.Float64bits(oracle) != math.Float64bits(want) {
			t.Errorf("vector %d: tree oracle %v, scalar %v", i, oracle, want)
		}
	}
	// Second call with a reused out slice must keep appending correctly.
	again := batch(params[:3], out[:0])
	for i := 0; i < 3; i++ {
		if math.Float64bits(again[i]) != math.Float64bits(out[i]) && !math.IsNaN(again[i]) {
			t.Errorf("reused-buffer call diverged at %d", i)
		}
	}
}

// TestRiverBatchCalibrationEndToEnd runs a real calibrator over the
// lane-batched objective and checks the result matches the scalar-objective
// run exactly — the Table V pipeline can switch to batch scoring without
// changing any reported number.
func TestRiverBatchCalibrationEndToEnd(t *testing.T) {
	forcing, obs, sim, lo, hi := riverFixture(t)
	objs, err := RiverObjectives(forcing, obs, sim)
	if err != nil {
		t.Fatal(err)
	}
	scalar, batch := objs.Scalar, objs.Batch
	for _, c := range batchCalibrators() {
		xs, fs := c.Calibrate(scalar, lo, hi, 400, rand.New(rand.NewSource(2)))
		xb, fb := c.CalibrateBatch(batch, lo, hi, 400, rand.New(rand.NewSource(2)))
		if math.Float64bits(fs) != math.Float64bits(fb) {
			t.Errorf("%s: scalar objective found %v, lane-batched %v", c.Name(), fs, fb)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(xb[i]) {
				t.Errorf("%s: parameter %d diverged: %v vs %v", c.Name(), i, xs[i], xb[i])
			}
		}
	}
}

// mcSequential and lhsSequential are the one-point-at-a-time reference
// forms of MC and LHS: draw, score, keep the first point unless a later one
// is strictly better (LHS starts from +Inf, so NaN scores never win).
func mcSequential(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	best := uniformBox(rng, lo, hi)
	bestF := obj(best)
	for i := 1; i < budget; i++ {
		x := uniformBox(rng, lo, hi)
		if f := obj(x); f < bestF {
			best, bestF = x, f
		}
	}
	return best, bestF
}

func lhsSequential(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	var best []float64
	bestF := math.Inf(1)
	for _, u := range stats.LatinHypercube(rng, budget, len(lo)) {
		x := make([]float64, len(lo))
		for j := range x {
			x[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		if f := obj(x); f < bestF {
			best, bestF = x, f
		}
	}
	return best, bestF
}

// nanFirst scores the first vector it sees as NaN and every later one
// through obj: MC must keep that NaN-scored first point as its best,
// because no score is strictly less than NaN, and LHS must skip it.
func nanFirst(obj Objective) Objective {
	first := true
	return func(x []float64) float64 {
		if first {
			first = false
			return math.NaN()
		}
		return obj(x)
	}
}

// TestSamplersMatchSequentialReference: MC and LHS score in cohorts, yet
// must return exactly what one-at-a-time sampling returns — over
// ScalarBatch and over a cohort-recording batch objective, across budgets
// below, at and above one cohort, with NaN faults and a NaN first score.
func TestSamplersMatchSequentialReference(t *testing.T) {
	lo, hi := box(4, -2, 2)
	target := sphere([]float64{0.5, -1.2, 1.7, 0.0})
	cases := []struct {
		name string
		cal  BatchCalibrator
		ref  func(Objective, []float64, []float64, int, *rand.Rand) ([]float64, float64)
	}{
		{"MC", NewMC(), mcSequential},
		{"LHS", NewLHS(), lhsSequential},
	}
	objs := map[string]func() Objective{
		"sphere":    func() Objective { return target },
		"nan-fault": func() Objective { return nanFaulted(target) },
		"nan-first": func() Objective { return nanFirst(target) },
	}
	for _, c := range cases {
		for name, mk := range objs {
			for _, budget := range []int{1, 100, sampleCohort, 3*sampleCohort + 17} {
				xRef, fRef := c.ref(mk(), lo, hi, budget, rand.New(rand.NewSource(5)))
				xs, fs := c.cal.CalibrateBatch(ScalarBatch(mk()), lo, hi, budget, rand.New(rand.NewSource(5)))
				rec := &recordingBatch{}
				xb, fb := c.cal.CalibrateBatch(rec.wrap(mk()), lo, hi, budget, rand.New(rand.NewSource(5)))
				for _, got := range []struct {
					x []float64
					f float64
				}{{xs, fs}, {xb, fb}} {
					if math.Float64bits(got.f) != math.Float64bits(fRef) || !bitsEqualVec(got.x, xRef) {
						t.Fatalf("%s/%s/budget %d: got (%v, %v), sequential reference (%v, %v)",
							c.name, name, budget, got.x, got.f, xRef, fRef)
					}
				}
				if rec.total != budget || rec.maxWidth() > sampleCohort {
					t.Errorf("%s/%s/budget %d: scored %d vectors in cohorts up to %d",
						c.name, name, budget, rec.total, rec.maxWidth())
				}
				if name == "nan-first" && c.name == "MC" && !math.IsNaN(fRef) {
					t.Errorf("MC/nan-first/budget %d: best %v, want the NaN-scored first point", budget, fRef)
				}
			}
		}
	}
}

func bitsEqualVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// withGOMAXPROCS runs f with GOMAXPROCS set to procs, restoring it after.
func withGOMAXPROCS(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestRiverBatchSplitParity: the batch objective splits cohorts into
// lane-aligned worker ranges when built under GOMAXPROCS > 1, and must
// still score every member bit for bit as Scalar does — at every cohort
// width around the lane and worker boundaries, with the box corners and a
// member whose integration aborts (non-finite state once clamping is off)
// in every lane chunk, and across repeated calls of shrinking and growing
// widths on one warm objective.
func TestRiverBatchSplitParity(t *testing.T) {
	forcing, obs, sim, lo, hi := riverFixture(t)
	rng := rand.New(rand.NewSource(33))
	blowUp := cloneVec(hi) // far outside the box: diverges without clamps
	blowUp[0] *= 1e3
	cohort := make([][]float64, 25)
	for i := range cohort {
		switch {
		case i%4 == 1:
			cohort[i] = lo
		case i%4 == 3:
			cohort[i] = hi
		case i%8 == 6:
			cohort[i] = blowUp
		default:
			cohort[i] = uniformBox(rng, lo, hi)
		}
	}
	unclamped := sim
	unclamped.ClampDisabled = true
	for _, procs := range []int{1, 2, 3, 8} {
		for _, sim := range []bio.SimConfig{sim, unclamped} {
			withGOMAXPROCS(procs, func() {
				objs, err := RiverObjectives(forcing, obs, sim)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(cohort))
				for i, x := range cohort {
					want[i] = objs.Scalar(x)
				}
				if sim.ClampDisabled && !math.IsInf(want[6], 1) {
					t.Fatalf("unclamped blow-up member scored %v, want +Inf from an aborted integration", want[6])
				}
				var out []float64
				for _, width := range []int{0, 1, 7, 8, 9, 16, 17, 22, 24, 25, 9, 0, 25} {
					out = objs.Batch(cohort[:width], append(out[:0], -1))
					if len(out) != width+1 || out[0] != -1 {
						t.Fatalf("GOMAXPROCS %d, width %d: batch returned %d values (prefix %v), want the -1 prefix plus %d",
							procs, width, len(out), out[:min(len(out), 1)], width)
					}
					for i, f := range out[1:] {
						if math.Float64bits(f) != math.Float64bits(want[i]) {
							t.Errorf("GOMAXPROCS %d, clamps off %v, width %d, member %d: batch %v, scalar %v",
								procs, sim.ClampDisabled, width, i, f, want[i])
						}
					}
				}
			})
		}
	}
}

// TestRiverBatchAllocFree: a warm batch call allocates nothing, on the
// serial path and on the split path alike — the worker hooks, goroutine
// bodies and scratch are built once with the objective.
func TestRiverBatchAllocFree(t *testing.T) {
	forcing, obs, sim, lo, hi := riverFixture(t)
	rng := rand.New(rand.NewSource(8))
	params := make([][]float64, 24)
	for i := range params {
		params[i] = uniformBox(rng, lo, hi)
	}
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			objs, err := RiverObjectives(forcing, obs, sim)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, 0, len(params))
			for i := 0; i < 100; i++ { // grow buffers, recycle goroutines
				out = objs.Batch(params, out[:0])
			}
			if a := testing.AllocsPerRun(50, func() { out = objs.Batch(params, out[:0]) }); a != 0 {
				t.Errorf("GOMAXPROCS %d: warm 24-vector batch call made %v allocations, want 0", procs, a)
			}
		})
	}
}
