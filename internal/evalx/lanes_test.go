package evalx

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gmr/internal/expr"
)

// Tests for the lane-batched path of EvaluateCluster over parameter sweeps
// (DESIGN.md §11), the shape champion refinement sends: short-circuit
// engagement and lane compaction inside batches, lane telemetry counters,
// and fault-injection parity with sequential evaluation.

// TestLaneBatchShortCircuits commits a short-circuit reference and checks
// that a parameter sweep actually triggers Algorithm 1 early stops on the
// lane path — the counters that were dormant before this path existed —
// and that the stopped members are compacted out of their launches.
func TestLaneBatchShortCircuits(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, Simplify: true, UseShortCircuit: true, Sim: simCfg(obs)}
	ev := New(forcing, obs, consts, opts)
	// A committed reference far below any reachable RMSE forces every
	// member's running RMSE above it as soon as MinFrac cases are in.
	ev.SetShortCircuitRef(1e-9)

	rng := rand.New(rand.NewSource(41))
	paramSets := make([][]float64, 11)
	for i := range paramSets {
		paramSets[i] = jitterParams(rng, ind.Params)
	}
	ev.BeginBatch()
	out := paramSweep(ev, ind, paramSets)
	ev.EndBatch()

	for i, r := range out {
		if r.FullEval {
			t.Fatalf("member %d ran fully; want short-circuited against the tiny reference", i)
		}
		if math.IsInf(r.Fitness, 1) || math.IsNaN(r.Fitness) {
			t.Fatalf("member %d surrogate fitness = %v; want a finite extrapolation", i, r.Fitness)
		}
	}
	st := ev.Stats()
	if st.ShortCircuits != len(paramSets) {
		t.Fatalf("ShortCircuits = %d, want %d", st.ShortCircuits, len(paramSets))
	}
	if st.LaneShortCircuits != len(paramSets) {
		t.Fatalf("LaneShortCircuits = %d, want %d", st.LaneShortCircuits, len(paramSets))
	}
	if st.StepsEvaluated >= st.StepsPossible {
		t.Fatalf("short-circuiting saved no steps: %d/%d", st.StepsEvaluated, st.StepsPossible)
	}
	if st.LaneCompactions == 0 {
		t.Fatal("no lane compactions; short-circuited members must drop out of their launches")
	}
}

// TestLaneCountersInSnapshot: the lane telemetry flows through Stats and
// the JSON Snapshot with the documented names.
func TestLaneCountersInSnapshot(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Simplify: true, Sim: simCfg(obs)})

	rng := rand.New(rand.NewSource(43))
	members := expr.Lanes + 3 // two launches: one full, one partial
	paramSets := make([][]float64, members)
	for i := range paramSets {
		paramSets[i] = jitterParams(rng, ind.Params)
	}
	ev.BeginBatch()
	paramSweep(ev, ind, paramSets)
	ev.EndBatch()

	st := ev.Stats()
	if st.LaneBatches != 2 {
		t.Fatalf("LaneBatches = %d, want 2 for %d members", st.LaneBatches, members)
	}
	if st.LanesFilled != members {
		t.Fatalf("LanesFilled = %d, want %d", st.LanesFilled, members)
	}
	b, err := json.Marshal(ev.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"lane_batches":2`, `"lanes_filled":11`, `"lane_short_circuits":0`} {
		if !strings.Contains(string(b), field) {
			t.Fatalf("snapshot JSON missing %s: %s", field, b)
		}
	}
}

// TestLaneBatchMatchesSequentialUnderFaults: injected NaN poisons must hit
// the same members with the same outcomes on the lane path as under
// sequential evaluation — the site hash depends only on the (structure,
// params) key, not on the execution mode.
func TestLaneBatchMatchesSequentialUnderFaults(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	spec := "seed=7,nan:0.5"

	rng := rand.New(rand.NewSource(47))
	for si := 0; si < 4; si++ {
		ind := randomInd(t, g, int64(300+si))
		paramSets := make([][]float64, 10)
		for i := range paramSets {
			paramSets[i] = jitterParams(rng, ind.Params)
		}

		seqEv := New(forcing, obs, consts, faultOpts(t, obs, spec))
		seqEv.BeginBatch()
		want := sequentialSweep(seqEv, ind, paramSets)
		seqEv.EndBatch()

		batchEv := New(forcing, obs, consts, faultOpts(t, obs, spec))
		batchEv.BeginBatch()
		got := paramSweep(batchEv, ind, paramSets)
		batchEv.EndBatch()

		compareSweeps(t, fmt.Sprintf("structure %d under %q", si, spec), got, want)
		if a, b := seqEv.Stats(), batchEv.Stats(); a.QuarNaN != b.QuarNaN {
			t.Fatalf("structure %d: quarantine counts diverged: sequential %d batch %d", si, a.QuarNaN, b.QuarNaN)
		}
	}
}
