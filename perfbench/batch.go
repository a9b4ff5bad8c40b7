package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/experiments"
	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/obs"
)

// setupDataset times the workload's set-up, generating the case-study
// dataset setup_reps times, and reports the median.
func (b *bench) setupDataset() (*dataset.Dataset, error) {
	var ds *dataset.Dataset
	var times []float64
	for i := 0; i < b.sp.SetupReps; i++ {
		t0 := time.Now()
		d, err := experiments.DefaultDataset(b.sp.DatasetSeed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		ds = d
	}
	b.setE2E("setup_s", median(times), len(times))
	b.setLayer("dataset.generate_s", median(times), len(times))
	return ds, nil
}

// digest is a 64-bit FNV-1a fingerprint of a run's outputs.
type digest struct{ h []string }

func (d *digest) str(s string) { d.h = append(d.h, s) }
func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.h = append(d.h, fmt.Sprintf("%016x", math.Float64bits(v)))
	}
}
func (d *digest) sum() string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(d.h, "|")))
	return fmt.Sprintf("%016x", h.Sum64())
}

// resultDigest fingerprints a GMR result: the best model's expressions and
// parameters and its train/test metrics, bit for bit.
func resultDigest(res *core.Result) string {
	var d digest
	d.str(res.BestPhy.String())
	d.str(res.BestZoo.String())
	d.f64(res.Best.Params...)
	d.f64(res.TrainRMSE, res.TrainMAE, res.TestRMSE, res.TestMAE)
	return d.sum()
}

func checkResult(res *core.Result) error {
	if res == nil || res.Best == nil || res.BestPhy == nil || res.BestZoo == nil {
		return fmt.Errorf("no best model")
	}
	for _, v := range []float64{res.TrainRMSE, res.TrainMAE, res.TestRMSE, res.TestMAE} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite metric in %v", []float64{res.TrainRMSE, res.TrainMAE, res.TestRMSE, res.TestMAE})
		}
	}
	return nil
}

// gmrConfig is the core.Config experiments.RunGMR builds for a scale. The
// traced revise run calls core.RunContext with it plus a tracer, and the
// replay check proves it is the same configuration: its output must match
// RunGMR's bit for bit.
func gmrConfig(sc experiments.Scale, seed int64) core.Config {
	return core.Config{
		GP: gp.Config{
			PopSize:          sc.GMRPop,
			MaxGen:           sc.GMRGen,
			LocalSearchSteps: sc.GMRLocalSearch,
			Seed:             seed,
		},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(sc.SubSteps, 0, 0)),
		Runs: sc.GMRRuns,
		TopK: sc.TopK,
	}
}

func evolveConfig(e evolveSpec, seed int64) core.Config {
	return core.Config{
		GP: gp.Config{
			PopSize:          e.Pop,
			MaxGen:           e.Gens,
			LocalSearchSteps: e.LocalSearch,
			Seed:             seed,
		},
		Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(e.SubSteps, 0, 0)),
		Runs:               e.Runs,
		TopK:               e.TopK,
		PreCalibrateBudget: -1,
	}
}

// gmrRuns drives a GMR workload: untraced reps through call until the
// window is spent, every one replaying rep 0's input and required to
// reproduce its output. A traced run then adds one traced core.RunContext
// rep with the same configuration, which must reproduce it too.
func (b *bench) gmrRuns(ds *dataset.Dataset, call func() (*core.Result, error), cfg core.Config) {
	var (
		walls      []float64
		first      string
		rmse       float64
		tr         *obs.Tracer
		traced     *core.Result
		tStart     time.Time
		tracedWall time.Duration
	)
	rep := func(i int, isTraced bool) {
		var res *core.Result
		var err error
		t0 := time.Now()
		if isTraced {
			tr = obs.NewTracer(obs.TracerConfig{Ring: b.sp.TraceRing})
			c := cfg
			c.Tracer = tr
			res, err = core.RunContext(context.Background(), ds, c)
		} else {
			res, err = call()
		}
		d := time.Since(t0)
		if err == nil {
			err = checkResult(res)
		}
		if err == nil {
			dg := resultDigest(res)
			if i == 0 {
				first, rmse = dg, res.TestRMSE
			} else if dg != first {
				err = fmt.Errorf("replay %d is not bitwise identical to rep 0 (digest %s vs %s)", i, dg, first)
			}
		}
		b.op(err)
		if isTraced {
			tStart, tracedWall = t0, d
			if err == nil {
				traced = res
			}
		} else {
			walls = append(walls, d.Seconds())
		}
	}
	b.repeatUntil(func(i int) { rep(i, false) })
	if b.traced {
		rep(len(walls), true)
	}
	b.setE2E("wall_s", median(walls), len(walls))
	b.setLayer("gmr.test_rmse", rmse, 1)
	b.note("GMR best-model test RMSE %.6g; untraced rep walls %.4v s, %s", rmse, walls, spread(walls))
	b.checkDigest(first)
	if traced == nil {
		return // untraced run, or the traced rep failed and is counted
	}
	overhead := tracedWall.Seconds() - median(walls)
	b.setLayer("trace.overhead_s", overhead, 1)
	b.note("tracing overhead %.4gs: traced wall %.4gs - untraced wall %.4gs", overhead, tracedWall.Seconds(), median(walls))
	b.gmrLayers(tr, tStart, tStart.Add(tracedWall), traced, ds.TrainEnd, cfg.PreCalibrateBudget >= 0)
}

// gmrLayers fills the core, gp, evalx and bio per-layer metrics of one
// traced core.RunContext call; precal says whether the configuration
// pre-calibrates.
func (b *bench) gmrLayers(tr *obs.Tracer, start, end time.Time, res *core.Result, trainDays int, precal bool) {
	spans := tr.Snapshot()
	b.setLayer("trace.spans", float64(len(spans)), len(spans))
	if err := checkRing(tr, len(spans)); err != nil {
		b.op(err)
		return
	}
	ph, err := corePhases(start, end, spans, precal)
	if err != nil {
		b.op(err)
		return
	}
	b.setLayer("core.precal_s", ph.precal.Seconds(), ph.runs)
	setupRuns := ph.runs
	if precal {
		setupRuns = 0 // set-up is inside core.precal_s, not measured apart
	}
	b.setLayer("core.run_setup_s", ph.setup.Seconds(), setupRuns)
	b.setLayer("core.evolve_s", ph.evolve.Seconds(), ph.runs)
	b.setLayer("core.finalize_s", ph.finalize.Seconds(), 1)
	wall := end.Sub(start)
	b.note("core phases over %d run(s): precal %.1f%%, run set-up %.1f%%, evolve %.1f%%, finalize %.1f%% of the traced wall %.4gs",
		ph.runs, 100*ph.precal.Seconds()/wall.Seconds(), 100*ph.setup.Seconds()/wall.Seconds(), 100*ph.evolve.Seconds()/wall.Seconds(),
		100*ph.finalize.Seconds()/wall.Seconds(), wall.Seconds())
	for _, s := range []struct{ span, metric string }{
		{"gp.init_pop", "gp.init_pop_s"},
		{"gp.variation", "gp.variation_s"},
		{"gp.evaluate", "gp.evaluate_s"},
		{"gp.refine_elite", "gp.refine_elite_s"},
		{"evalx.simulate", "evalx.simulate_s"},
		{"evalx.lane_batch", "evalx.lane_batch_s"},
		{"evalx.exog_plan", "evalx.exog_plan_s"},
	} {
		busy, n := spanBusy(spans, s.span)
		b.setLayer(s.metric, busy.Seconds(), n)
	}
	evals := 0
	for _, r := range res.PerRun {
		evals += r.Evaluations
	}
	b.setLayer("gp.evaluations", float64(evals), len(res.PerRun))

	st := res.EvalStats
	n := st.Evaluations
	b.setLayer("evalx.compiles", float64(st.Compiles), n)
	b.setLayer("evalx.tier1_hit_ratio", ratio(float64(st.Tier1Hits), float64(st.Tier1Hits+st.Compiles)), st.Tier1Hits+st.Compiles)
	b.setLayer("evalx.tier2_hit_ratio", ratio(float64(st.CacheHits), float64(n)), n)
	b.setLayer("evalx.steps_simulated_ratio", ratio(float64(st.StepsEvaluated), float64(st.StepsPossible)), n)
	b.setLayer("evalx.short_circuit_ratio", ratio(float64(st.ShortCircuits), float64(n)), n)
	b.setLayer("evalx.lane_fill", ratio(float64(st.LanesFilled), float64(st.LaneBatches*expr.Lanes)), st.LaneBatches)
	b.setLayer("evalx.pop_scalar_fallback_ratio", ratio(float64(st.PopScalarFallbacks), float64(st.PopClusters+st.PopScalarFallbacks)), st.PopClusters+st.PopScalarFallbacks)
	b.setLayer("evalx.quarantined", float64(st.Quarantined()), n)
	b.setLayer("evalx.exog_plan_mb", float64(st.RegsHoisted)*float64(trainDays)*8/1e6, st.ExogPlanBuilds)
	// bio has no member-day counter of its own. The GP loop's simulated
	// fitness cases are counted (evalx.StepsEvaluated); pre-calibration's
	// are not, so they are left out rather than estimated.
	b.setLayer("bio.member_days", float64(st.StepsEvaluated), n)
}

func runRevise(b *bench) error {
	sc, ok := experiments.ScaleByName(b.sp.Revise.Scale)
	if !ok {
		return fmt.Errorf("revise: unknown scale %q", b.sp.Revise.Scale)
	}
	ds, err := b.setupDataset()
	if err != nil {
		return err
	}
	call := func() (*core.Result, error) {
		_, res, err := experiments.RunGMR(context.Background(), ds, sc, b.seed)
		return res, err
	}
	b.gmrRuns(ds, call, gmrConfig(sc, b.seed))
	return nil
}

func runEvolve(b *bench) error {
	ds, err := b.setupDataset()
	if err != nil {
		return err
	}
	cfg := evolveConfig(b.sp.Evolve, b.seed)
	call := func() (*core.Result, error) {
		return core.RunContext(context.Background(), ds, cfg)
	}
	b.gmrRuns(ds, call, cfg)
	return nil
}

// runBaselines times the Table V calibrators and GGGP, one
// experiments.TableV call per method, at the reduced scale of spec.json.
// TableV takes no tracer and exposes no simulation counter, so the traced
// run adds only the per-method times and accuracies.
func runBaselines(b *bench) error {
	bs := b.sp.Baselines
	ds, err := b.setupDataset()
	if err != nil {
		return err
	}
	sc := experiments.Scale{
		Name:        "bench",
		GMRRuns:     1,
		GGGPPop:     bs.GGGPPop,
		GGGPGen:     bs.GGGPGen,
		CalibBudget: bs.CalibBudget,
		SubSteps:    bs.SubSteps,
	}
	var (
		walls   []float64
		first   string
		perTime = map[string][]float64{}
		rmse    = map[string]float64{}
	)
	b.repeatUntil(func(i int) {
		t0 := time.Now()
		var d digest
		for _, m := range bs.Methods {
			t := time.Now()
			rows, err := experiments.TableV(context.Background(), ds, sc, b.seed, map[string]bool{m: true})
			perTime[m] = append(perTime[m], time.Since(t).Seconds())
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("%s: TableV returned %d rows", m, len(rows))
			}
			if err == nil {
				r := rows[0]
				for _, v := range []float64{r.TrainRMSE, r.TrainMAE, r.TestRMSE, r.TestMAE} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						err = fmt.Errorf("%s: non-finite metric", m)
					}
				}
				d.str(r.Method)
				d.f64(r.TrainRMSE, r.TrainMAE, r.TestRMSE, r.TestMAE)
				if i == 0 {
					rmse[m] = r.TestRMSE
				}
			}
			b.op(err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		if dg := d.sum(); i == 0 {
			first = dg
		} else if dg != first {
			b.op(fmt.Errorf("replay %d of the Table V rows is not bitwise identical to rep 0", i))
		}
	})
	b.setE2E("wall_s", median(walls), len(walls))
	b.checkDigest(first)
	for _, m := range bs.Methods {
		b.setLayer("experiments.method_s."+m, median(perTime[m]), len(perTime[m]))
		b.setLayer("experiments.test_rmse."+m, rmse[m], 1)
	}
	b.note("Table V pass walls %.4v s, %s", walls, spread(walls))
	if b.traced {
		b.note("experiments.TableV takes no tracer: no spans, gp.* included, are recorded")
	}
	return nil
}
