package evalx

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
	"gmr/internal/tag"
)

// parityPop builds the duplicate-heavy population shape the clustered
// scheduler targets: nStructs random structures, each appearing eight
// times — the base, param-jittered clones, and exact duplicates —
// interleaved so cluster members are scattered across the population.
func parityPop(t *testing.T, g *tag.Grammar, nStructs int) []*gp.Individual {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	bases := make([]*gp.Individual, nStructs)
	for s := range bases {
		d, err := g.RandomDeriv(rng, 3, 18)
		if err != nil {
			t.Fatal(err)
		}
		bases[s] = gp.NewIndividual(d, bio.Means(bio.DefaultConstants()))
	}
	var pop []*gp.Individual
	for c := 0; c < 8; c++ {
		for s, base := range bases {
			cl := base.Clone()
			if c > 0 && c%3 != 0 {
				cl.Params[c%len(cl.Params)] *= 1 + float64(s*8+c)*1e-3
			}
			pop = append(pop, cl)
		}
	}
	// Two pre-evaluated members: the scheduler must skip them unchanged.
	pop[3].Evaluated, pop[3].FullEval, pop[3].Fitness = true, true, 1.25
	pop[2*nStructs+1].Evaluated, pop[2*nStructs+1].Fitness = true, 2.5
	return pop
}

// scalarSubset extracts the counters that must match between the clustered
// scheduler and sequential scalar evaluation at Workers=1. The pop_*/lane
// counters are intentionally absent (they differ by construction), and so
// is CacheHits under Workers>1 (cross-chunk duplicates of one key may both
// simulate before the first-wins tier-2 insert; fitness stays identical).
func scalarSubset(s Stats) [13]int {
	return [13]int{
		s.Evaluations, s.FullEvals, s.ShortCircuits, s.CacheHits,
		s.Tier1Hits, s.Derives, s.Compiles, s.StepsEvaluated,
		s.StepsPossible, s.QuarNaN, s.QuarInf, s.QuarDeadline,
		s.QuarBadStructure,
	}
}

// runPop drives one EvaluatePopulation pass over a fresh engine + fresh
// evaluator and returns the population, evaluator stats, and the engine
// quarantine count.
func runPop(t *testing.T, g *tag.Grammar, opts Options, workers int) ([]*gp.Individual, Stats, int64) {
	t.Helper()
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, opts)
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: 48, Seed: 11, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pop := parityPop(t, g, 6)
	eng.EvaluatePopulation(pop)
	return pop, ev.Stats(), eng.Quarantines()
}

// seqPop is runPop's star-shaped reference: the same population scored by
// one scalar Evaluate call per unevaluated member, in population order,
// inside one batch, with a panicking member recovered and quarantined
// (+Inf, evaluated, full) the way the engine quarantines.
func seqPop(t *testing.T, g *tag.Grammar, opts Options) ([]*gp.Individual, Stats, int64) {
	t.Helper()
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, opts)
	pop := parityPop(t, g, 6)
	var quarantined int64
	ev.BeginBatch()
	for _, ind := range pop {
		if ind.Evaluated {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					ind.Fitness, ind.Evaluated, ind.FullEval = math.Inf(1), true, true
					quarantined++
				}
			}()
			ev.Evaluate(ind)
		}()
	}
	ev.EndBatch()
	return pop, ev.Stats(), quarantined
}

// comparePops asserts bitwise-identical fitness and identical evaluation
// flags, member by member.
func comparePops(t *testing.T, label string, a, b []*gp.Individual) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i].Fitness) != math.Float64bits(b[i].Fitness) {
			t.Errorf("%s: member %d fitness %v vs %v (bits differ)", label, i, a[i].Fitness, b[i].Fitness)
		}
		if a[i].Evaluated != b[i].Evaluated || a[i].FullEval != b[i].FullEval {
			t.Errorf("%s: member %d flags (%v,%v) vs (%v,%v)", label, i,
				a[i].Evaluated, a[i].FullEval, b[i].Evaluated, b[i].FullEval)
		}
	}
}

// TestClusterScalarParity: at Workers=1 the clustered scheduler and
// sequential scalar Evaluate calls must agree bitwise on every fitness and
// on the full scalar counter subset — the clustered path is an
// optimization, not a semantic change.
func TestClusterScalarParity(t *testing.T) {
	_, obs, _ := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	opts := AllSpeedups(simCfg(obs))

	popRef, stRef, quarRef := seqPop(t, g, opts)
	popClu, stClu, quarClu := runPop(t, g, opts, 1)

	comparePops(t, "clustered vs sequential", popClu, popRef)
	if a, b := scalarSubset(stClu), scalarSubset(stRef); a != b {
		t.Errorf("clustered counters %v != sequential %v", a, b)
	}
	if quarClu != quarRef {
		t.Errorf("quarantines: clustered %d, sequential %d", quarClu, quarRef)
	}
	// The duplicate-heavy shape must actually exercise the lane path:
	// multi-member clusters scheduled, lane batches launched from them.
	if stClu.PopClusters == 0 || stClu.PopLaneBatches == 0 {
		t.Errorf("clustered run scheduled %d clusters, %d lane batches; fixture is not exercising the lane path",
			stClu.PopClusters, stClu.PopLaneBatches)
	}
}

// TestClusterFaultParity: with injected panics and NaN poisons, the
// clustered scheduler must make the same per-member quarantine decisions as
// sequential scalar evaluation — same +Inf members, same reason counters,
// same panic-quarantine count. Fault decisions are deterministic per individual
// (see TestFaultDecisionsDeterministicAcrossEvaluators), so this holds
// bitwise at Workers=1.
func TestClusterFaultParity(t *testing.T) {
	_, obs, _ := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	mkOpts := func() Options {
		in, err := faultinject.Parse("seed=42,panic:0.1,nan:0.1")
		if err != nil {
			t.Fatal(err)
		}
		opts := AllSpeedups(simCfg(obs))
		opts.Faults = in
		return opts
	}

	popClu, stClu, quarClu := runPop(t, g, mkOpts(), 1)
	popSeq, stSeq, quarSeq := seqPop(t, g, mkOpts())

	comparePops(t, "faulty clustered vs sequential", popClu, popSeq)
	if a, b := scalarSubset(stClu), scalarSubset(stSeq); a != b {
		t.Errorf("faulty counters: clustered %v != sequential %v", a, b)
	}
	if quarClu != quarSeq {
		t.Errorf("panic quarantines: clustered %d != sequential %d", quarClu, quarSeq)
	}
	if quarClu == 0 && stClu.Quarantined() == 0 {
		t.Error("10% panic + 10% nan over 46 members injected nothing (suspicious)")
	}
	inf := 0
	for _, ind := range popClu {
		if math.IsInf(ind.Fitness, 1) {
			inf++
		}
	}
	if inf == 0 {
		t.Error("no member carries +Inf fitness despite injected faults")
	}
}

// TestClusterWorkersParity: the clustered partition is fixed before any
// evaluation is dispatched and per-member semantics are order-independent,
// so fitness and quarantine outcomes are bitwise identical across worker
// counts. (Cache-hit counters are NOT compared: under parallelism two
// chunks of one cluster may each simulate the same duplicate before the
// first-wins tier-2 insert lands — the fitness is identical either way.)
func TestClusterWorkersParity(t *testing.T) {
	_, obs, _ := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "seed=7,panic:0.15,nan:0.1"} {
		mkOpts := func() Options {
			opts := AllSpeedups(simCfg(obs))
			if spec != "" {
				in, err := faultinject.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				opts.Faults = in
			}
			return opts
		}
		pop1, st1, quar1 := runPop(t, g, mkOpts(), 1)
		pop8, st8, quar8 := runPop(t, g, mkOpts(), 8)
		comparePops(t, "workers 1 vs 8 ("+spec+")", pop1, pop8)
		if quar1 != quar8 {
			t.Errorf("spec %q: engine quarantines %d (w=1) != %d (w=8)", spec, quar1, quar8)
		}
		if st1.Quarantined() != st8.Quarantined() {
			t.Errorf("spec %q: evaluator quarantines %d (w=1) != %d (w=8)", spec, st1.Quarantined(), st8.Quarantined())
		}
	}
}

// TestClusterTelemetryExposition: the pop_* scheduler counters must be
// visible on both telemetry paths — the Snapshot JSON the orchestrator
// streams into JSONL, and the obs registry's Prometheus exposition.
func TestClusterTelemetryExposition(t *testing.T) {
	forcing, obsF, consts := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	ev := New(forcing, obsF, consts, AllSpeedups(simCfg(obsF)))
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: 48, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.EvaluatePopulation(parityPop(t, g, 6))

	st := ev.Stats()
	if st.PopClusters == 0 || st.PopLanesFilled == 0 {
		t.Fatalf("scheduler counters empty after a clustered pass: %+v", st)
	}
	b, err := json.Marshal(ev.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"pop_clusters":`, `"pop_scalar_fallbacks":`, `"pop_lane_batches":`, `"pop_lanes_filled":`, `"pop_cluster_size_hist":`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("snapshot JSON missing %s: %s", field, b)
		}
	}

	reg := obs.NewRegistry()
	ev.RegisterObs(reg, "gmr_evalx", nil)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{`counter="pop_clusters"`, `counter="pop_lane_batches"`, `counter="pop_cluster_size",le="8"`} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("prometheus exposition missing series %s", series)
		}
	}
}

// TestClusterStructKeyMemoInvariant: the memoized structure key survives
// any sequence of variation operators. For every offspring, the key
// ResolveStruct memoizes (possibly via the keyTag fast path on a stale
// memo) must equal the key re-derived from scratch on a clone whose memo
// was explicitly dropped — i.e. operators that change structure invalidate
// the memo, and operators that only touch parameters keep it.
func TestClusterStructKeyMemoInvariant(t *testing.T) {
	forcing, obs, consts := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	ev := New(forcing, obs, consts, AllSpeedups(simCfg(obs)))
	priors := make([]gp.Prior, len(consts))
	for i, c := range consts {
		priors[i] = gp.Prior{Mean: c.Mean, Min: c.Min, Max: c.Max}
	}
	rng := rand.New(rand.NewSource(99))
	pool := make([]*gp.Individual, 8)
	for i := range pool {
		d, err := g.RandomDeriv(rng, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = gp.NewIndividual(d, bio.Means(consts))
	}
	check := func(seq int, ind *gp.Individual) {
		ev.ResolveStruct(ind)
		fresh := ind.Clone()
		fresh.InvalidateStructure()
		ev.ResolveStruct(fresh)
		if got, want := ind.StructKey(), fresh.StructKey(); got != want {
			t.Fatalf("seq %d: memoized key %q != re-derived key %q", seq, got, want)
		}
	}
	for seq := 0; seq < 1000; seq++ {
		var child *gp.Individual
		switch rng.Intn(6) {
		case 0:
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			c1, c2 := gp.Crossover(rng, a, b, 2, 25)
			if c2 != nil {
				check(seq, c2)
			}
			child = c1
		case 1:
			child = gp.SubtreeMutation(rng, g, pool[rng.Intn(len(pool))], 25)
		case 2:
			child = gp.GaussianMutation(rng, pool[rng.Intn(len(pool))], priors, 0.3, 0.4)
		case 3:
			child = gp.Insertion(rng, g, pool[rng.Intn(len(pool))], 25)
		case 4:
			child = gp.Deletion(rng, pool[rng.Intn(len(pool))], 2)
		case 5:
			child = pool[rng.Intn(len(pool))].Clone()
		}
		if child == nil {
			continue
		}
		check(seq, child)
		pool[rng.Intn(len(pool))] = child
	}
	if ev.Stats().Tier1Hits == 0 {
		t.Error("no tier-1 hits across 1000 sequences — the memo fast path never ran")
	}
}

// TestClusterDispatchSteadyStateAllocs: once every (structure, params) pair
// is in the tier-2 cache, a full population pass — resolve phase, flat
// partition, chunk dispatch, cluster cache hits — must not allocate per
// member. A small constant overhead per pass (the WaitGroup/counter pair
// that escapes into the job channel) is allowed; growth with population
// size is the regression this guards against.
func TestClusterDispatchSteadyStateAllocs(t *testing.T) {
	_, obs, _ := smallData(t)
	forcing, obsF, consts := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	ev := New(forcing, obsF, consts, AllSpeedups(simCfg(obs)))
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: 48, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pop := parityPop(t, g, 6)
	eng.EvaluatePopulation(pop) // warm: fill tier 1 + tier 2, size the scratch
	invalidateAll := func() {
		for _, ind := range pop {
			ind.Invalidate() // keeps params and the memoized key
		}
	}
	invalidateAll()
	eng.EvaluatePopulation(pop) // second pass: map/scratch at steady-state size
	got := testing.AllocsPerRun(10, func() {
		invalidateAll()
		eng.EvaluatePopulation(pop)
	})
	t.Logf("steady-state population pass: %.0f allocs for 48 members", got)
	if got > 8 {
		t.Errorf("steady-state population pass allocates %.0f objects for 48 members, want constant ≤ 8", got)
	}
	for _, ind := range pop {
		if !ind.Evaluated {
			t.Fatal("steady-state pass left members unevaluated")
		}
	}
}
