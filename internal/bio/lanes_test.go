package bio

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gmr/internal/expr"
)

// Differential tests for the lane driver: RunLanes must deliver,
// per member, exactly the hook sequence the scalar Kernel produces for that
// member's parameter vector — same days, same bitwise biomasses, same
// non-finite abort values, same early stops — regardless of how many lanes
// run together or in what order other lanes die.

func randBoxParams(rng *rand.Rand, consts []Constant) []float64 {
	params := make([]float64, len(consts))
	for i, c := range consts {
		params[i] = c.Min + rng.Float64()*(c.Max-c.Min)
	}
	return params
}

// TestKernelLanesMatchesScalarKernel runs every segment-test system shape
// with 1..Lanes members per batch, mixed per-member early stops, and
// configs spanning clamping modes; each member's lane trace must equal its
// scalar trace bitwise.
func TestKernelLanesMatchesScalarKernel(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	rng := rand.New(rand.NewSource(7))
	cfgs := []SimConfig{
		{SubSteps: 1, Phy0: 2, Zoo0: 1},
		{SubSteps: 4, Phy0: 0.5, Zoo0: 1.5},
		{SubSteps: 2, Phy0: 3, Zoo0: 0.1, ClampDisabled: true},
		{SubSteps: 3, Phy0: 1, Zoo0: 1, ClampMin: -1, ClampMax: 50},
	}
	for si, pair := range segTestSystems(t, paramIdx) {
		seg, err := NewSegSystem(pair[0], pair[1])
		if err != nil {
			t.Fatalf("system %d: NewSegSystem: %v", si, err)
		}
		for trial := 0; trial < 10; trial++ {
			forcing := randForcing(rng, 30+rng.Intn(40))
			plan := seg.BuildExogPlan(forcing)
			cfg := cfgs[trial%len(cfgs)]
			n := 1 + rng.Intn(expr.Lanes)
			params := make([][]float64, n)
			stopAt := make([]int, n)
			for m := range params {
				params[m] = randBoxParams(rng, consts)
				stopAt[m] = -1
				if rng.Intn(3) == 0 {
					stopAt[m] = rng.Intn(len(forcing))
				}
			}

			// Scalar reference: one Kernel run per member.
			want := make([]stepTrace, n)
			var sc SimScratch
			for m := range params {
				seg.Prologue(params[m], &sc)
				seg.Kernel(plan, cfg, &sc, want[m].hook(stopAt[m]))
			}

			// Lane run: all members in one batch.
			got := make([]stepTrace, n)
			var scLanes SimScratch
			seg.RunLanes(plan, params, cfg, &scLanes, func(m, day int, bphy float64) bool {
				return got[m].hook(stopAt[m])(day, bphy)
			}, nil)

			for m := range params {
				if !sameTrace(&want[m], &got[m]) {
					t.Fatalf("system %d trial %d member %d/%d: lane trace diverges from scalar\nscalar days %v\nlane   days %v",
						si, trial, m, n, want[m].ts, got[m].ts)
				}
			}
		}
	}
}

// TestRunLanesChunksWideBatches checks the lane driver against scalar runs
// for batches wider than the lane count (forcing chunking and member-index
// offsetting).
func TestRunLanesChunksWideBatches(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	forcing := randForcing(rng, 50)
	cfg := SimConfig{SubSteps: 4, Phy0: 1, Zoo0: 0.5}
	const n = 2*expr.Lanes + 3
	params := make([][]float64, n)
	for m := range params {
		params[m] = randBoxParams(rng, consts)
	}

	want := make([]stepTrace, n)
	var sc SimScratch
	plan := seg.BuildExogPlan(forcing)
	for m := range params {
		seg.Prologue(params[m], &sc)
		seg.Kernel(plan, cfg, &sc, want[m].hook(-1))
	}

	got := make([]stepTrace, n)
	var scLanes SimScratch
	seg.RunLanes(plan, params, cfg, &scLanes, func(m, day int, bphy float64) bool {
		return got[m].hook(-1)(day, bphy)
	}, nil)
	for m := range params {
		if !sameTrace(&want[m], &got[m]) {
			t.Fatalf("member %d: RunLanes trace diverges from scalar", m)
		}
	}
}

// TestKernelLanesCompactionStress forces heavy mid-flight lane death: the
// hostile blow-up system plus aggressive per-member early stops, so lanes
// drop in many different orders. Every surviving member must still match
// its scalar trace.
func TestKernelLanesCompactionStress(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pairs := segTestSystems(t, paramIdx)
	hostile := pairs[len(pairs)-1]
	seg, err := NewSegSystem(hostile[0], hostile[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		forcing := randForcing(rng, 20)
		plan := seg.BuildExogPlan(forcing)
		cfg := SimConfig{SubSteps: 2, Phy0: 0.1 + rng.Float64()*3, Zoo0: rng.Float64(), ClampDisabled: trial%2 == 0}
		n := expr.Lanes
		params := make([][]float64, n)
		stopAt := make([]int, n)
		for m := range params {
			params[m] = randBoxParams(rng, consts)
			stopAt[m] = rng.Intn(len(forcing)) // every member stops early somewhere
		}

		want := make([]stepTrace, n)
		var sc SimScratch
		for m := range params {
			seg.Prologue(params[m], &sc)
			seg.Kernel(plan, cfg, &sc, want[m].hook(stopAt[m]))
		}

		got := make([]stepTrace, n)
		var scLanes SimScratch
		seg.RunLanes(plan, params, cfg, &scLanes, func(m, day int, bphy float64) bool {
			return got[m].hook(stopAt[m])(day, bphy)
		}, nil)
		for m := range params {
			if !sameTrace(&want[m], &got[m]) {
				t.Fatalf("trial %d member %d: compacted lane trace diverges\nscalar days %v\nlane   days %v",
					trial, m, want[m].ts, got[m].ts)
			}
		}
	}
}

// TestKernelLanesAllocFree: steady-state lane runs with a reused scratch
// must not allocate, with or without a launch callback.
func TestKernelLanesAllocFree(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	forcing := randForcing(rng, 60)
	plan := seg.BuildExogPlan(forcing)
	cfg := SimConfig{SubSteps: 4, Phy0: 1, Zoo0: 0.5}
	params := make([][]float64, expr.Lanes)
	for m := range params {
		params[m] = randBoxParams(rng, consts)
	}
	var sc SimScratch
	hook := func(m, day int, bphy float64) bool { return true }
	launches := 0
	onLaunch := func(int, time.Time, time.Duration) { launches++ }
	// Warm the scratch buffers once.
	seg.RunLanes(plan, params, cfg, &sc, hook, nil)
	allocs := testing.AllocsPerRun(10, func() {
		seg.RunLanes(plan, params, cfg, &sc, hook, nil)
		seg.RunLanes(plan, params, cfg, &sc, hook, onLaunch)
	})
	if allocs != 0 {
		t.Fatalf("lane batch allocates %.1f times per run; want 0", allocs)
	}
}

// TestRunLanesDriver pins the driver's contract: no members means no launch
// and no hook call; otherwise ⌈n/expr.Lanes⌉ launches in input order whose
// member counts sum to n, hook indices into the full params slice, one
// reported compaction per stopped member, and per-member traces bitwise
// equal to the scalar Kernel — also on a scratch last used for a wider run.
func TestRunLanesDriver(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	forcing := randForcing(rng, 40)
	plan := seg.BuildExogPlan(forcing)
	cfg := SimConfig{SubSteps: 2, Phy0: 1, Zoo0: 0.5}

	var sc SimScratch
	if drops := seg.RunLanes(plan, nil, cfg, &sc, func(int, int, float64) bool {
		t.Fatal("hook called for an empty run")
		return false
	}, func(int, time.Time, time.Duration) {
		t.Fatal("launch reported for an empty run")
	}); drops != 0 {
		t.Fatalf("empty run reported %d compactions", drops)
	}

	// Widest first, so every later run reuses a scratch sized and filled by
	// a wider one.
	for _, n := range []int{3*expr.Lanes + 5, 17, 9, 8, 1} {
		params := make([][]float64, n)
		stopAt := make([]int, n)
		for m := range params {
			params[m] = randBoxParams(rng, consts)
			stopAt[m] = -1
			if m%3 == 1 {
				stopAt[m] = rng.Intn(len(forcing))
			}
		}
		want := make([]stepTrace, n)
		var ssc SimScratch
		for m := range params {
			seg.Prologue(params[m], &ssc)
			seg.Kernel(plan, cfg, &ssc, want[m].hook(stopAt[m]))
		}

		got := make([]stepTrace, n)
		var launches []int
		drops := seg.RunLanes(plan, params, cfg, &sc, func(m, day int, bphy float64) bool {
			if m < 0 || m >= n {
				t.Fatalf("n=%d: hook member %d outside the params slice", n, m)
			}
			return got[m].hook(stopAt[m])(day, bphy)
		}, func(members int, start time.Time, dur time.Duration) {
			if start.IsZero() || dur < 0 {
				t.Fatalf("n=%d: launch reported start %v, duration %v", n, start, dur)
			}
			launches = append(launches, members)
		})

		if wantLaunches := (n + expr.Lanes - 1) / expr.Lanes; len(launches) != wantLaunches {
			t.Fatalf("n=%d: %d launches, want %d", n, len(launches), wantLaunches)
		}
		sum := 0
		for i, members := range launches {
			if wantM := min(expr.Lanes, n-i*expr.Lanes); members != wantM {
				t.Fatalf("n=%d: launch %d carried %d members, want %d", n, i, members, wantM)
			}
			sum += members
		}
		if sum != n {
			t.Fatalf("n=%d: launches carried %d members in total", n, sum)
		}
		stopped := 0
		for m := range params {
			if !sameTrace(&want[m], &got[m]) {
				t.Fatalf("n=%d member %d: lane trace diverges from scalar\nscalar days %v\nlane   days %v",
					n, m, want[m].ts, got[m].ts)
			}
			last := math.Float64frombits(want[m].vals[len(want[m].vals)-1])
			if stopAt[m] >= 0 || len(want[m].ts) < len(forcing) || math.IsNaN(last) || math.IsInf(last, 0) {
				stopped++
			}
		}
		if drops != stopped {
			t.Fatalf("n=%d: RunLanes reported %d compactions, want %d stopped members", n, drops, stopped)
		}
	}
}
