package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func env(vars map[string]float64, params map[string]float64) *Env {
	return &Env{VarByName: vars, ParamByName: params}
}

func TestEvalBasicOps(t *testing.T) {
	e := env(map[string]float64{"x": 3, "y": 2}, nil)
	cases := []struct {
		name string
		n    *Node
		want float64
	}{
		{"lit", NewLit(4.5), 4.5},
		{"add", Add(NewVar("x"), NewVar("y")), 5},
		{"sub", Sub(NewVar("x"), NewVar("y")), 1},
		{"mul", Mul(NewVar("x"), NewVar("y")), 6},
		{"div", Div(NewVar("x"), NewVar("y")), 1.5},
		{"neg", Neg(NewVar("x")), -3},
		{"exp", Exp(NewLit(0)), 1},
		{"log", Log(Exp(NewLit(2))), 2},
		{"min", Min(NewVar("x"), NewVar("y"), NewLit(7)), 2},
		{"max", Max(NewVar("x"), NewVar("y"), NewLit(7)), 7},
		{"nested", Mul(Add(NewVar("x"), NewLit(1)), Sub(NewVar("y"), NewLit(0.5))), 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.n.Eval(e)
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if math.Abs(got-c.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

func TestEvalGuards(t *testing.T) {
	e := env(nil, nil)
	// Division by zero is protected, not NaN.
	v, err := Div(NewLit(1), NewLit(0)).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("protected division returned %v", v)
	}
	// Log of a negative value is protected.
	v, err = Log(NewLit(-5)).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) {
		t.Errorf("protected log returned NaN")
	}
	// Exp of a huge value is clamped.
	v, err = Exp(NewLit(1e9)).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(v, 0) {
		t.Errorf("clamped exp returned Inf")
	}
}

func TestEvalErrors(t *testing.T) {
	e := env(nil, nil)
	if _, err := NewVar("missing").Eval(e); err == nil {
		t.Error("expected error for unbound var")
	}
	if _, err := NewParam("Cmissing").Eval(e); err == nil {
		t.Error("expected error for unbound param")
	}
	if _, err := NewSubSite("Exp").Eval(e); err == nil {
		t.Error("expected error for substitution site")
	}
	if _, err := NewFoot("Exp").Eval(e); err == nil {
		t.Error("expected error for foot node")
	}
}

func TestBindAndIndexedEval(t *testing.T) {
	n := Add(Mul(NewVar("a"), NewParam("Ck")), NewVar("b"))
	if err := Bind(n, map[string]int{"a": 0, "b": 1}, map[string]int{"Ck": 0}); err != nil {
		t.Fatal(err)
	}
	got, err := n.Eval(&Env{Vars: []float64{2, 5}, Params: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Errorf("got %v, want 11", got)
	}
	// Missing name should error.
	if err := Bind(NewVar("zzz"), map[string]int{}, nil); err == nil {
		t.Error("expected bind error for unknown var")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := Add(NewVar("x"), NewLit(1))
	c := n.Clone()
	c.Kids[1].Val = 99
	c.Kids[0].Name = "y"
	if n.Kids[1].Val != 1 || n.Kids[0].Name != "x" {
		t.Error("Clone shares structure with original")
	}
}

func TestSizeDepthWalk(t *testing.T) {
	n := Mul(Add(NewVar("x"), NewLit(1)), NewVar("y"))
	if n.Size() != 5 {
		t.Errorf("Size = %d, want 5", n.Size())
	}
	if n.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", n.Depth())
	}
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	if count != 5 {
		t.Errorf("Walk visited %d nodes, want 5", count)
	}
}

func TestValidate(t *testing.T) {
	good := Min(NewVar("x"), NewLit(0))
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	bad := &Node{Kind: Binary, Op: OpAdd, Kids: []*Node{NewLit(1)}}
	if err := bad.Validate(); err == nil {
		t.Error("arity violation accepted")
	}
	bad2 := &Node{Kind: Nary, Op: OpMin, Kids: []*Node{NewLit(1)}}
	if err := bad2.Validate(); err == nil {
		t.Error("1-ary min accepted")
	}
	bad3 := &Node{Kind: Var} // unnamed
	if err := bad3.Validate(); err == nil {
		t.Error("unnamed var accepted")
	}
}

func TestSimplifyRules(t *testing.T) {
	x := NewVar("x")
	cases := []struct {
		name string
		in   *Node
		want string
	}{
		{"fold add", Add(NewLit(2), NewLit(3)), "5"},
		{"x+0", Add(x.Clone(), NewLit(0)), "x"},
		{"0+x", Add(NewLit(0), x.Clone()), "x"},
		{"x-0", Sub(x.Clone(), NewLit(0)), "x"},
		{"x-x", Sub(x.Clone(), x.Clone()), "0"},
		{"x*1", Mul(x.Clone(), NewLit(1)), "x"},
		{"1*x", Mul(NewLit(1), x.Clone()), "x"},
		{"x*0", Mul(x.Clone(), NewLit(0)), "0"},
		{"x/1", Div(x.Clone(), NewLit(1)), "x"},
		{"x/x", Div(x.Clone(), x.Clone()), "1"},
		{"0/x", Div(NewLit(0), x.Clone()), "0"},
		{"neg neg", Neg(Neg(x.Clone())), "x"},
		{"log exp", Log(Exp(x.Clone())), "x"},
		{"exp log", Exp(Log(x.Clone())), "x"},
		{"nested", Add(Mul(x.Clone(), NewLit(1)), NewLit(0)), "x"},
		{"min dup", Min(x.Clone(), x.Clone()), "x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Simplify(c.in).String()
			if got != c.want {
				t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
			}
		})
	}
}

func TestSimplifyDoesNotMutateOriginal(t *testing.T) {
	n := Add(NewVar("x"), NewLit(0))
	before := n.String()
	_ = Simplify(n)
	if n.String() != before {
		t.Error("Simplify mutated its input")
	}
}

// randomTree builds a random completed tree over the given variables.
func randomTree(rng *rand.Rand, vars []string, depth int) *Node {
	if depth <= 0 || rng.Float64() < 0.3 {
		if rng.Float64() < 0.5 {
			return NewLit(math.Round(rng.NormFloat64()*100) / 10)
		}
		return NewVar(vars[rng.Intn(len(vars))])
	}
	switch rng.Intn(7) {
	case 0:
		return Add(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	case 1:
		return Sub(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	case 2:
		return Mul(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	case 3:
		return Div(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	case 4:
		return Neg(randomTree(rng, vars, depth-1))
	case 5:
		return Min(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	default:
		return Max(randomTree(rng, vars, depth-1), randomTree(rng, vars, depth-1))
	}
}

// Property: Simplify preserves the value of the expression at random
// environments.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"x", "y", "z"}
	for i := 0; i < 300; i++ {
		n := randomTree(rng, vars, 5)
		s := Simplify(n)
		for trial := 0; trial < 5; trial++ {
			e := env(map[string]float64{
				"x": rng.NormFloat64() * 10,
				"y": rng.NormFloat64() * 10,
				"z": rng.NormFloat64() * 10,
			}, nil)
			v1, err1 := n.Eval(e)
			v2, err2 := s.Eval(e)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval error: %v / %v", err1, err2)
			}
			if math.Abs(v1-v2) > 1e-9*(1+math.Abs(v1)) {
				t.Fatalf("tree %d: Simplify changed value: %v vs %v\noriginal %s\nsimplified %s",
					i, v1, v2, n, s)
			}
		}
	}
}

// Property: the compiled register program agrees with the tree interpreter
// exactly.
func TestCompileMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []string{"x", "y", "z"}
	varIdx := map[string]int{"x": 0, "y": 1, "z": 2}
	for i := 0; i < 300; i++ {
		n := randomTree(rng, vars, 6)
		if err := Bind(n, varIdx, map[string]int{}); err != nil {
			t.Fatal(err)
		}
		prog, err := CompileReg([]*Node{n}, func(int) bool { return false })
		if err != nil {
			t.Fatalf("CompileReg: %v (tree %s)", err, n)
		}
		regs := make([]float64, prog.NumRegs())
		for trial := 0; trial < 5; trial++ {
			vs := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
			want, err := n.Eval(&Env{Vars: vs})
			if err != nil {
				t.Fatal(err)
			}
			got := prog.EvalOnce(vs, nil, regs)
			if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
				t.Fatalf("tree %d: compiled %v != interpreted %v for %s", i, got, want, n)
			}
		}
	}
}

func TestCompileRejectsIncomplete(t *testing.T) {
	compile := func(n *Node) error {
		_, err := CompileReg([]*Node{n}, func(int) bool { return false })
		return err
	}
	if err := compile(NewSubSite("Exp")); err == nil {
		t.Error("compiled an open substitution site")
	}
	if err := compile(NewFoot("Exp")); err == nil {
		t.Error("compiled a foot node")
	}
	if err := compile(NewVar("unbound")); err == nil {
		t.Error("compiled an unbound variable")
	}
}

// Property: Parse(n.String()) round-trips the expression semantically (the
// parser normalizes negated literals, so structural identity is only
// guaranteed up to that folding; values must agree exactly).
func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vars := []string{"Vx", "BPhy", "z1"}
	for i := 0; i < 200; i++ {
		n := randomTree(rng, vars, 5)
		parsed, err := Parse(n.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", n.String(), err)
		}
		for trial := 0; trial < 5; trial++ {
			e := env(map[string]float64{
				"Vx":   rng.NormFloat64() * 10,
				"BPhy": rng.NormFloat64() * 10,
				"z1":   rng.NormFloat64() * 10,
			}, nil)
			v1, err1 := n.Eval(e)
			v2, err2 := parsed.Eval(e)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval error: %v / %v", err1, err2)
			}
			if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
				t.Fatalf("round trip changed value: %v vs %v\n in  %s\n out %s", v1, v2, n, parsed)
			}
		}
		// A second print→parse cycle must be structurally stable.
		again, err := Parse(parsed.String())
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if again.String() != parsed.String() {
			t.Fatalf("print/parse not idempotent:\n one %s\n two %s", parsed, again)
		}
	}
}

func TestParseNamesParamsAndVars(t *testing.T) {
	n, err := Parse("CUA * Vtmp + BPhy - 2.5e-3")
	if err != nil {
		t.Fatal(err)
	}
	params := n.Params()
	vars := n.Vars()
	if len(params) != 1 || params[0] != "CUA" {
		t.Errorf("params = %v, want [CUA]", params)
	}
	if len(vars) != 2 || vars[0] != "Vtmp" || vars[1] != "BPhy" {
		t.Errorf("vars = %v, want [Vtmp BPhy]", vars)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "1 +", "(1", "min(1)", "foo(2)", "1 2", "@", "log(1,2)"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	n := MustParse("1 + 2 * 3")
	v, err := n.Eval(env(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Errorf("1+2*3 = %v, want 7", v)
	}
	n = MustParse("(1 + 2) * 3")
	if v = n.MustEval(env(nil, nil)); v != 9 {
		t.Errorf("(1+2)*3 = %v, want 9", v)
	}
	n = MustParse("-2 * 3")
	if v = n.MustEval(env(nil, nil)); v != -6 {
		t.Errorf("-2*3 = %v, want -6", v)
	}
}

// quick.Check property: SafeDiv never returns NaN/Inf for finite inputs.
func TestSafeDivTotal(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Confine magnitudes: a/eps can overflow for astronomically large a,
		// which is outside the domain GP evaluation produces after clamping.
		if math.Abs(a) > 1e100 {
			return true
		}
		v := SafeDiv(a, b)
		return !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrettyOmitsOuterParens(t *testing.T) {
	n := Add(NewVar("x"), NewLit(1))
	if s := n.Pretty(); strings.HasPrefix(s, "(") {
		t.Errorf("Pretty = %q, want no outer parens", s)
	}
}

func TestCompleteDetection(t *testing.T) {
	if !Add(NewVar("x"), NewLit(1)).Complete() {
		t.Error("completed tree reported incomplete")
	}
	if Add(NewVar("x"), NewSubSite("R")).Complete() {
		t.Error("tree with substitution site reported complete")
	}
}

// Property: Clone produces structurally equal but pointer-disjoint trees.
func TestClonePropertyDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		n := randomTree(rng, []string{"a", "b"}, 5)
		c := n.Clone()
		if c.String() != n.String() {
			t.Fatal("clone not structurally equal")
		}
		// Collect pointers of both trees; they must not overlap.
		seen := map[*Node]bool{}
		n.Walk(func(m *Node) bool { seen[m] = true; return true })
		c.Walk(func(m *Node) bool {
			if seen[m] {
				t.Fatal("clone shares a node pointer with the original")
			}
			return true
		})
	}
}

// Property: Size equals the number of Walk visits; Depth is consistent
// with a recursive definition.
func TestSizeDepthConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	var depth func(n *Node) int
	depth = func(n *Node) int {
		d := 0
		for _, k := range n.Kids {
			if kd := depth(k); kd > d {
				d = kd
			}
		}
		return d + 1
	}
	for i := 0; i < 100; i++ {
		n := randomTree(rng, []string{"a"}, 6)
		count := 0
		n.Walk(func(*Node) bool { count++; return true })
		if n.Size() != count {
			t.Fatalf("Size %d != Walk count %d", n.Size(), count)
		}
		if n.Depth() != depth(n) {
			t.Fatalf("Depth %d != recursive depth %d", n.Depth(), depth(n))
		}
	}
}

// Property: simplification is idempotent.
func TestSimplifyIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 150; i++ {
		n := randomTree(rng, []string{"a", "b"}, 5)
		once := Simplify(n)
		twice := Simplify(once)
		if once.String() != twice.String() {
			t.Fatalf("Simplify not idempotent:\n once %s\n twice %s", once, twice)
		}
	}
}

// Property: simplification never grows the tree.
func TestSimplifyNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 150; i++ {
		n := randomTree(rng, []string{"a", "b", "c"}, 5)
		if s := Simplify(n); s.Size() > n.Size() {
			t.Fatalf("Simplify grew tree %d → %d:\n %s\n %s", n.Size(), s.Size(), n, s)
		}
	}
}

func TestSimplifyCommutativeCanonicalization(t *testing.T) {
	x := NewVar("x")
	cases := []struct{ in, want string }{
		{"2 + x", "(x + 2)"},
		{"2 * x", "(x * 2)"},
		{"(x + 2) + 3", "(x + 5)"},
		{"3 + (x + 2)", "(x + 5)"},
		{"(x * 2) * 3", "(x * 6)"},
		{"(x + 2) + (0 - 2)", "x"},
	}
	for _, c := range cases {
		n := MustParse(c.in)
		got := Simplify(n).String()
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	// Canonicalization makes commuted forms cache-identical.
	a := Simplify(Add(NewLit(2), x.Clone()))
	b := Simplify(Add(x.Clone(), NewLit(2)))
	if a.String() != b.String() {
		t.Errorf("commuted forms differ: %s vs %s", a, b)
	}
}
