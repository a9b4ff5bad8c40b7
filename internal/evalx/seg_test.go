package evalx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gmr/internal/gp"
)

// Differential tests for the segmented evaluation path (tier-1.5
// exogenous-plan cache + parameter sweeps through EvaluateCluster,
// DESIGN.md §10).

// jitterParams returns a copy of base with every entry nudged by a small
// deterministic factor.
func jitterParams(rng *rand.Rand, base []float64) []float64 {
	ps := append([]float64(nil), base...)
	for i := range ps {
		ps[i] *= 1 + 0.2*(rng.Float64()-0.5)
	}
	return ps
}

// sweepMembers clones ind once per parameter vector, unevaluated.
func sweepMembers(ind *gp.Individual, paramSets [][]float64) []*gp.Individual {
	members := make([]*gp.Individual, len(paramSets))
	for i, ps := range paramSets {
		c := ind.Clone()
		c.Params = append([]float64(nil), ps...)
		c.Invalidate()
		members[i] = c
	}
	return members
}

// paramSweep scores ind's structure under every parameter vector the way
// champion refinement does: resolve each member, then one EvaluateCluster
// call over the same-structure cluster.
func paramSweep(ev *Evaluator, ind *gp.Individual, paramSets [][]float64) []*gp.Individual {
	members := sweepMembers(ind, paramSets)
	for _, c := range members {
		ev.ResolveStruct(c)
	}
	ev.EvaluateCluster(members)
	return members
}

// sequentialSweep is paramSweep's reference: one scalar Evaluate per member.
func sequentialSweep(ev *Evaluator, ind *gp.Individual, paramSets [][]float64) []*gp.Individual {
	members := sweepMembers(ind, paramSets)
	for _, c := range members {
		ev.Evaluate(c)
	}
	return members
}

// compareSweeps asserts bitwise-equal fitnesses and equal full-evaluation
// flags, member by member.
func compareSweeps(t *testing.T, label string, got, want []*gp.Individual) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cluster results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Fitness) != math.Float64bits(want[i].Fitness) || got[i].FullEval != want[i].FullEval {
			t.Fatalf("%s member %d: cluster (%v, full=%v) != sequential (%v, full=%v)", label, i,
				got[i].Fitness, got[i].FullEval, want[i].Fitness, want[i].FullEval)
		}
	}
}

// TestSegmentedMatchesMonolithic: over grammar-derived random structures ×
// jittered parameter vectors, an evaluator using the segmented register VM
// must produce bitwise-identical fitnesses (and short-circuit decisions) to
// the monolithic tree-interpreting evaluator (UseCompile off: every
// substep walks both whole trees), the reference oracle. Both evaluators
// see the same evaluation sequence, so their frozen references evolve in
// lockstep.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, Simplify: true, UseShortCircuit: true, Sim: simCfg(obs)}
	tree := opts
	tree.UseCompile = false
	segEv := New(forcing, obs, consts, opts)
	monoEv := New(forcing, obs, consts, tree)

	rng := rand.New(rand.NewSource(17))
	manual, _ := manualInd(t)
	inds := []*gp.Individual{manual}
	for i := 0; i < 25; i++ {
		inds = append(inds, randomInd(t, g, int64(100+i)))
	}
	for round := 0; round < 3; round++ {
		segEv.BeginBatch()
		monoEv.BeginBatch()
		for i, ind := range inds {
			ps := jitterParams(rng, ind.Params)
			a := ind.Clone()
			a.Params = append([]float64(nil), ps...)
			a.Invalidate()
			b := a.Clone()
			segEv.Evaluate(a)
			monoEv.Evaluate(b)
			if math.Float64bits(a.Fitness) != math.Float64bits(b.Fitness) {
				t.Fatalf("round %d individual %d: segmented fitness %v != monolithic %v", round, i, a.Fitness, b.Fitness)
			}
			if a.FullEval != b.FullEval {
				t.Fatalf("round %d individual %d: short-circuit decision diverged (seg full=%v mono full=%v)",
					round, i, a.FullEval, b.FullEval)
			}
		}
		segEv.EndBatch()
		monoEv.EndBatch()
	}
	st := segEv.Stats()
	if st.ExogPlanBuilds == 0 {
		t.Fatal("segmented evaluator built no exogenous plans; the segmented path did not engage")
	}
	if st.ExogPlanHits == 0 {
		t.Fatal("no exogenous-plan hits across repeat evaluations")
	}
	if mono := monoEv.Stats(); mono.ExogPlanBuilds != 0 || mono.ExogPlanHits != 0 {
		t.Fatalf("tree evaluator touched the plan cache: %+v", mono)
	}
}

// TestClusterParamSweepMatchesSequential: one cluster of N parameter
// vectors over one structure must reproduce N sequential Evaluate calls
// bitwise, fitness and full-evaluation flags alike.
func TestClusterParamSweepMatchesSequential(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, Simplify: true, UseShortCircuit: true, Sim: simCfg(obs)}

	rng := rand.New(rand.NewSource(23))
	for si := 0; si < 6; si++ {
		ind := randomInd(t, g, int64(200+si))
		paramSets := make([][]float64, 16)
		for i := range paramSets {
			paramSets[i] = jitterParams(rng, ind.Params)
		}

		seqEv := New(forcing, obs, consts, opts)
		seqEv.BeginBatch()
		want := sequentialSweep(seqEv, ind, paramSets)
		seqEv.EndBatch()

		batchEv := New(forcing, obs, consts, opts)
		batchEv.BeginBatch()
		got := paramSweep(batchEv, ind, paramSets)
		batchEv.EndBatch()

		compareSweeps(t, fmt.Sprintf("structure %d", si), got, want)
		// The short-circuiting reference must end up identical, so later
		// decisions cannot drift between the two modes.
		if a, b := seqEv.ShortCircuitRef(), batchEv.ShortCircuitRef(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("structure %d: short-circuit refs diverged: sequential %v batch %v", si, a, b)
		}
	}
}

// TestExogPlanCountersInSnapshot: the tier-1.5 counters surface through
// Snapshot for the orchestrator's JSONL telemetry.
func TestExogPlanCountersInSnapshot(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Simplify: true, Sim: simCfg(obs)})
	ev.BeginBatch()
	for i := 0; i < 3; i++ {
		c := ind.Clone()
		// Distinct parameters per evaluation so tier 2 misses and the
		// simulation (and hence the plan lookup) actually runs each time.
		for j := range c.Params {
			c.Params[j] *= 1 + 0.01*float64(i)
		}
		c.Invalidate()
		ev.Evaluate(c)
	}
	ev.EndBatch()
	snap := ev.Snapshot()
	if snap.ExogPlanBuilds != 1 {
		t.Fatalf("ExogPlanBuilds = %d, want 1", snap.ExogPlanBuilds)
	}
	if snap.ExogPlanHits != 2 {
		t.Fatalf("ExogPlanHits = %d, want 2 (two reuses of one plan)", snap.ExogPlanHits)
	}
	if snap.RegsHoisted <= 0 {
		t.Fatalf("RegsHoisted = %d, want > 0 for the manual process", snap.RegsHoisted)
	}
}
