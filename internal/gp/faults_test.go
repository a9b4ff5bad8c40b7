package gp

import (
	"math"
	"testing"

	"gmr/internal/faultinject"
)

// panicEvaluator wraps valueEvaluator and panics deterministically for a
// content-keyed subset of individuals: the decision is a pure function of
// the derived expression and parameter vector, so it does not depend on
// evaluation order or worker count. That lets the determinism tests below
// compare Workers=1 against Workers=4 under fire.
type panicEvaluator struct {
	valueEvaluator
	inj *faultinject.Injector
}

func (p *panicEvaluator) site(ind *Individual) uint64 {
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return faultinject.HashFloats(0, ind.Params)
	}
	return faultinject.HashFloats(faultinject.HashString(derived.String()), ind.Params)
}

func (p *panicEvaluator) EvaluateCluster(c []*Individual) { evaluateEach(c, p.Evaluate) }

func (p *panicEvaluator) Evaluate(ind *Individual) {
	if p.inj.Hit(faultinject.Panic, p.site(ind)) {
		panic(faultinject.InjectedPanic{Site: "gp.test", Hash: p.site(ind)})
	}
	p.valueEvaluator.Evaluate(ind)
}

func panicInjector(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	in, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestEngineSurvivesEvaluatorPanics: a run whose evaluator panics on ~10%
// of individuals still completes, quarantines the victims as +Inf, and
// converges (quarantined individuals never win).
func TestEngineSurvivesEvaluatorPanics(t *testing.T) {
	ev := &panicEvaluator{
		valueEvaluator: valueEvaluator{target: 7.25},
		inj:            panicInjector(t, "seed=11,panic:0.1"),
	}
	eng, err := NewEngine(testGrammar(), ev, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Quarantines() == 0 {
		t.Fatal("panic:0.1 over a full run quarantined nothing (suspicious)")
	}
	if math.IsInf(res.Best.Fitness, 1) || math.IsNaN(res.Best.Fitness) {
		t.Fatalf("best fitness = %v; quarantined individuals must never win", res.Best.Fitness)
	}
	// Best fitness still monotone non-increasing despite panics.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].BestFitness > res.History[i-1].BestFitness+1e-12 {
			t.Errorf("generation %d best fitness worsened: %v → %v",
				i, res.History[i-1].BestFitness, res.History[i].BestFitness)
		}
	}
}

// TestEngineDeterministicUnderPanics: with content-keyed injected panics,
// Workers=1 and Workers=4 runs produce bit-identical history and best
// fitness — panic isolation must not perturb the evolutionary sequence.
func TestEngineDeterministicUnderPanics(t *testing.T) {
	run := func(workers int) *Result {
		ev := &panicEvaluator{
			valueEvaluator: valueEvaluator{target: 7.25},
			inj:            panicInjector(t, "seed=11,panic:0.1"),
		}
		cfg := smallConfig(3)
		cfg.Workers = workers
		eng, err := NewEngine(testGrammar(), ev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if eng.Quarantines() == 0 {
			t.Fatalf("workers=%d: no quarantines; test is not exercising panic isolation", workers)
		}
		return res
	}
	a, b := run(1), run(4)
	if math.Float64bits(a.Best.Fitness) != math.Float64bits(b.Best.Fitness) {
		t.Fatalf("best fitness differs: workers=1 %v, workers=4 %v", a.Best.Fitness, b.Best.Fitness)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history length differs: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if math.Float64bits(a.History[i].BestFitness) != math.Float64bits(b.History[i].BestFitness) {
			t.Fatalf("generation %d: best fitness %v (workers=1) vs %v (workers=4)",
				i, a.History[i].BestFitness, b.History[i].BestFitness)
		}
	}
}

// TestQuarantineMarksIndividual: a quarantined individual is fully marked
// (evaluated, full, +Inf) so it never re-enters the evaluation queue.
func TestQuarantineMarksIndividual(t *testing.T) {
	eng, err := NewEngine(testGrammar(), &valueEvaluator{target: 1}, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ind := &Individual{}
	eng.quarantine(ind)
	if !math.IsInf(ind.Fitness, 1) || !ind.Evaluated || !ind.FullEval {
		t.Fatalf("quarantine left ind = {fitness %v, evaluated %v, full %v}",
			ind.Fitness, ind.Evaluated, ind.FullEval)
	}
	if eng.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", eng.Quarantines())
	}
}
