package bio

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/expr"
)

func TestDefaultConstantsTableIII(t *testing.T) {
	cs := DefaultConstants()
	if len(cs) != 16 {
		t.Fatalf("Table III has 16 constants, got %d", len(cs))
	}
	for _, c := range cs {
		if c.Min > c.Mean || c.Mean > c.Max {
			t.Errorf("%s: mean %v outside [%v, %v]", c.Name, c.Mean, c.Min, c.Max)
		}
		if c.Name[0] != 'C' {
			t.Errorf("constant %q does not start with C", c.Name)
		}
	}
	// Spot-check a few rows against the paper.
	idx := ParamIndex(cs)
	if cs[idx["CUA"]].Mean != 1.89 || cs[idx["CUA"]].Max != 4.0 {
		t.Error("CUA prior mismatch with Table III")
	}
	if cs[idx["CBTP1"]].Mean != 27.0 || cs[idx["CBTP2"]].Mean != 5.0 {
		t.Error("optimal temperature priors mismatch with Table III")
	}
}

func TestVariablesTableIV(t *testing.T) {
	vs := Variables()
	if len(vs) != 10 {
		t.Fatalf("Table IV has 10 temporal variables, got %d", len(vs))
	}
	vi := VarIndex()
	if vi["BPhy"] != IdxBPhy || vi["BZoo"] != IdxBZoo {
		t.Error("state variables must occupy indices 0 and 1")
	}
	if len(vi) != NumVars {
		t.Errorf("VarIndex has %d entries, want %d", len(vi), NumVars)
	}
	for _, v := range vs {
		if v.Name[0] != 'V' {
			t.Errorf("variable %q does not start with V", v.Name)
		}
	}
}

// typicalVars returns a plausible mid-summer variable vector.
func typicalVars(bphy, bzoo float64) []float64 {
	vars := make([]float64, NumVars)
	vi := VarIndex()
	vars[vi["BPhy"]] = bphy
	vars[vi["BZoo"]] = bzoo
	vars[vi["Vlgt"]] = 20
	vars[vi["Vn"]] = 2.5
	vars[vi["Vp"]] = 0.08
	vars[vi["Vsi"]] = 3.0
	vars[vi["Vtmp"]] = 24
	vars[vi["Vdo"]] = 9
	vars[vi["Vcd"]] = 3
	vars[vi["Vph"]] = 8
	vars[vi["Valk"]] = 5
	vars[vi["Vsd"]] = 1.5
	return vars
}

func TestManualSystemBindsAndEvaluates(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	params := Means(consts)
	vars := typicalVars(20, 2)
	dPhy, err := phy.Eval(&expr.Env{Vars: vars, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	dZoo, err := zoo.Eval(&expr.Env{Vars: vars, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(dPhy) || math.IsNaN(dZoo) {
		t.Fatal("manual system evaluates to NaN under typical conditions")
	}
	// Derivatives should be bounded by biology: |dB/dt| < B * max rate.
	if math.Abs(dPhy) > 20*5 || math.Abs(dZoo) > 2*5 {
		t.Errorf("implausible derivatives: dPhy=%v dZoo=%v", dPhy, dZoo)
	}
}

// TestProcessAgainstHandComputation checks each subprocess against values
// computed by hand from equations (1) and (2).
func TestProcessAgainstHandComputation(t *testing.T) {
	consts := DefaultConstants()
	params := Means(consts)
	pi := ParamIndex(consts)
	vars := typicalVars(20, 2)
	env := &expr.Env{Vars: vars, Params: params}
	vi := VarIndex()
	bind := func(n *expr.Node) *expr.Node {
		if err := expr.Bind(n, vi, pi); err != nil {
			t.Fatal(err)
		}
		return n
	}

	// λPhy = (20-1)/(5+20-1) = 19/24
	lam := bind(LambdaPhy()).MustEval(env)
	if math.Abs(lam-19.0/24.0) > 1e-12 {
		t.Errorf("λPhy = %v, want %v", lam, 19.0/24.0)
	}
	// f(Vlgt) = (20/26.78)*e^(1-20/26.78)
	r := 20.0 / 26.78
	f := bind(LightLimitation()).MustEval(env)
	if math.Abs(f-r*math.Exp(1-r)) > 1e-12 {
		t.Errorf("f = %v, want %v", f, r*math.Exp(1-r))
	}
	// g = min over three Monod terms.
	g := bind(NutrientLimitation()).MustEval(env)
	want := math.Min(2.5/(0.0351+2.5), math.Min(0.08/(0.00167+0.08), 3.0/(0.00467+3.0)))
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("g = %v, want %v", g, want)
	}
	// h at 24°C: nearer the blue-green optimum 27.
	h := bind(TemperatureLimitation()).MustEval(env)
	want = math.Max(math.Exp(-0.005*9), math.Exp(-0.005*361))
	if math.Abs(h-want) > 1e-12 {
		t.Errorf("h = %v, want %v", h, want)
	}
	// ϕ = CMFR·λ, γPhy = CBRA, δZoo = CDZ.
	if phi := bind(Phi()).MustEval(env); math.Abs(phi-0.19*lam) > 1e-12 {
		t.Errorf("ϕ = %v", phi)
	}
	// Full dBPhy = BPhy(µ-γ) - BZoo·ϕ.
	mu := bind(MuPhy()).MustEval(env)
	wantPhy := 20*(mu-0.021) - 2*(0.19*lam)
	got := bind(PhyDeriv()).MustEval(env)
	if math.Abs(got-wantPhy) > 1e-9 {
		t.Errorf("dBPhy = %v, want %v", got, wantPhy)
	}
	// Full dBZoo = BZoo(µZoo - γZoo - δZoo).
	muZ := 0.15 * lam
	gamZ := 0.05 + 0.04*(0.19*lam)
	wantZoo := 2 * (muZ - gamZ - 0.04)
	gotZoo := bind(ZooDeriv()).MustEval(env)
	if math.Abs(gotZoo-wantZoo) > 1e-9 {
		t.Errorf("dBZoo = %v, want %v", gotZoo, wantZoo)
	}
}

func TestExtensionLabelsPresent(t *testing.T) {
	phy, zoo := PhyDeriv(), ZooDeriv()
	want := map[string]*expr.Node{
		"Ext1": phy, "Ext3": phy, "Ext5": phy, "Ext6": phy,
		"Ext2": zoo, "Ext7": zoo, "Ext8": zoo, "Ext9": zoo,
	}
	for sym, tree := range want {
		found := false
		tree.Walk(func(n *expr.Node) bool {
			if n.Sym == sym {
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("extension label %s missing", sym)
		}
	}
	if phy.Sym != "Ext1" || zoo.Sym != "Ext2" {
		t.Error("whole-equation labels must sit at the roots")
	}
}

func TestSimulatorStabilityUnderManualProcess(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	params := Means(consts)
	rng := rand.New(rand.NewSource(1))
	days := 365
	forcing := make([][]float64, days)
	vi := VarIndex()
	for d := range forcing {
		row := typicalVars(0, 0)
		season := math.Sin(2 * math.Pi * float64(d) / 365)
		row[vi["Vtmp"]] = 15 + 11*season + rng.NormFloat64()
		row[vi["Vlgt"]] = 17 + 10*season + rng.NormFloat64()
		forcing[d] = row
	}
	preds := sys.Predict(forcing, params, SimConfig{Phy0: 10, Zoo0: 1})
	if len(preds) != days {
		t.Fatalf("got %d predictions, want %d", len(preds), days)
	}
	// The manual process at Table III means is numerically unstable (the
	// paper's MANUAL row reports train RMSE 2.79e9 — it diverges); the
	// simulator must keep it finite and clamped, never NaN.
	for i, p := range preds {
		if math.IsNaN(p) || p < 0 || p > 1e5 {
			t.Fatalf("day %d: unclamped biomass %v", i, p)
		}
	}
}

// TestSimulatorBoundedUnderTamedParams checks that a calibrated-style
// parameterization (lower growth, sharper temperature limitation, stronger
// grazing) stays in a biologically plausible range all year.
func TestSimulatorBoundedUnderTamedParams(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	params := Means(consts)
	pi := ParamIndex(consts)
	params[pi["CUA"]] = 0.82
	params[pi["CBRA"]] = 0.16
	params[pi["CPT"]] = 0.045
	params[pi["CMFR"]] = 0.7
	params[pi["CUZ"]] = 0.28
	params[pi["CP"]] = 0.015
	rng := rand.New(rand.NewSource(3))
	days := 2 * 365
	forcing := make([][]float64, days)
	vi := VarIndex()
	for d := range forcing {
		row := typicalVars(0, 0)
		season := math.Sin(2 * math.Pi * (float64(d) - 110) / 365)
		row[vi["Vtmp"]] = 14.5 + 11.5*season + rng.NormFloat64()
		row[vi["Vlgt"]] = math.Max(1.5, 15+11*season+2*rng.NormFloat64())
		// Summer phosphorus drawdown keeps the bloom self-limiting.
		row[vi["Vp"]] = math.Max(0.004, 0.05-0.04*season+0.006*rng.NormFloat64())
		forcing[d] = row
	}
	preds := sys.Predict(forcing, params, SimConfig{Phy0: 10, Zoo0: 1, ClampMin: 1, ClampMax: 220})
	for i, p := range preds {
		if p > 220.001 || p < 0.999 || math.IsNaN(p) {
			t.Fatalf("day %d: biomass %v outside configured bounds", i, p)
		}
	}
}

// TestCompiledAndTreeSystemsAgree verifies RC (runtime compilation to the
// segmented register VM) produces bit-identical trajectories to tree
// interpretation.
func TestCompiledAndTreeSystemsAgree(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	interp := NewTreeSystem(phy, zoo)
	params := Means(consts)
	rng := rand.New(rand.NewSource(2))
	forcing := make([][]float64, 100)
	vi := VarIndex()
	for d := range forcing {
		row := typicalVars(0, 0)
		row[vi["Vtmp"]] = 5 + 20*rng.Float64()
		row[vi["Vlgt"]] = 5 + 25*rng.Float64()
		row[vi["Vn"]] = 1 + 2*rng.Float64()
		forcing[d] = row
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	a := compiled.Predict(forcing, params, cfg)
	b := interp.Predict(forcing, params, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("day %d: compiled %v != interpreted %v", i, a[i], b[i])
		}
	}
}

func TestRunEarlyStop(t *testing.T) {
	phy, zoo, consts, _ := ManualSystem()
	sys := NewTreeSystem(phy, zoo)
	forcing := make([][]float64, 50)
	for d := range forcing {
		forcing[d] = typicalVars(0, 0)
	}
	n := 0
	preds := sys.Run(forcing, Means(consts), SimConfig{Phy0: 10, Zoo0: 1}, func(t int, _ float64) bool {
		n++
		return t < 9 // stop after the 10th day
	})
	if n != 10 || len(preds) != 10 {
		t.Errorf("early stop: called %d times, %d preds; want 10, 10", n, len(preds))
	}
}

func TestRunDoesNotMutateForcing(t *testing.T) {
	phy, zoo, consts, _ := ManualSystem()
	sys := NewTreeSystem(phy, zoo)
	row := typicalVars(123, 456)
	orig := append([]float64(nil), row...)
	sys.Predict([][]float64{row}, Means(consts), SimConfig{Phy0: 10, Zoo0: 1})
	for i := range row {
		if row[i] != orig[i] {
			t.Fatalf("forcing row mutated at col %d", i)
		}
	}
}

func TestStateClamping(t *testing.T) {
	// An explosive process must be clamped, not diverge.
	growth := expr.Mul(expr.NewVar("BPhy"), expr.NewLit(100))
	decay := expr.Mul(expr.NewVar("BZoo"), expr.NewLit(-100))
	vi := VarIndex()
	if err := expr.Bind(growth, vi, map[string]int{}); err != nil {
		t.Fatal(err)
	}
	if err := expr.Bind(decay, vi, map[string]int{}); err != nil {
		t.Fatal(err)
	}
	sys := NewTreeSystem(growth, decay)
	forcing := make([][]float64, 30)
	for d := range forcing {
		forcing[d] = typicalVars(0, 0)
	}
	preds := sys.Predict(forcing, nil, SimConfig{Phy0: 10, Zoo0: 1})
	for _, p := range preds {
		if p > 1e5 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("clamping failed: %v", p)
		}
	}
}

// TestSubstepConvergence: halving the Euler step changes trajectories only
// modestly for the tamed parameterization — the integrator resolution is
// adequate.
func TestSubstepConvergence(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	params := Means(consts)
	pi := ParamIndex(consts)
	params[pi["CUA"]] = 0.82
	params[pi["CBRA"]] = 0.16
	params[pi["CPT"]] = 0.045
	params[pi["CMFR"]] = 0.7
	params[pi["CUZ"]] = 0.28
	params[pi["CP"]] = 0.015
	rng := rand.New(rand.NewSource(4))
	days := 200
	vi := VarIndex()
	forcing := make([][]float64, days)
	for d := range forcing {
		row := typicalVars(0, 0)
		season := math.Sin(2 * math.Pi * (float64(d) - 110) / 365)
		row[vi["Vtmp"]] = 14.5 + 11.5*season + rng.NormFloat64()
		row[vi["Vp"]] = math.Max(0.004, 0.05-0.04*season)
		forcing[d] = row
	}
	coarse := sys.Predict(forcing, params, SimConfig{SubSteps: 4, Phy0: 8, Zoo0: 1.5, ClampMin: 1, ClampMax: 220})
	fine := sys.Predict(forcing, params, SimConfig{SubSteps: 8, Phy0: 8, Zoo0: 1.5, ClampMin: 1, ClampMax: 220})
	var num, den float64
	for i := range coarse {
		d := coarse[i] - fine[i]
		num += d * d
		den += fine[i] * fine[i]
	}
	if rel := math.Sqrt(num / den); rel > 0.2 {
		t.Errorf("halving the step changed the trajectory by %.1f%% RMS; integrator too coarse", 100*rel)
	}
}

// TestZeroBiomassBoundary: at the clamp floor the state stays finite and
// non-negative even under strongly negative derivatives.
func TestZeroBiomassBoundary(t *testing.T) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys := NewTreeSystem(phy, zoo)
	params := Means(consts)
	pi := ParamIndex(consts)
	params[pi["CBRA"]] = 0.17 // max respiration
	params[pi["CUA"]] = 0.1   // min growth
	forcing := make([][]float64, 120)
	for d := range forcing {
		row := typicalVars(0, 0)
		vi := VarIndex()
		row[vi["Vlgt"]] = 0.5 // darkness
		forcing[d] = row
	}
	preds := sys.Predict(forcing, params, SimConfig{Phy0: 5, Zoo0: 5, ClampMin: 0.001, ClampMax: 220})
	for i, p := range preds {
		if p < 0.001-1e-12 || math.IsNaN(p) {
			t.Fatalf("day %d: state %v below floor", i, p)
		}
	}
	// It must actually decay toward the floor.
	if preds[len(preds)-1] > preds[0] {
		t.Error("starving population grew")
	}
}
