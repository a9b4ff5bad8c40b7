package expr

import "testing"

// benchProgram compiles a representative growth-rate-sized expression
// (mixed arithmetic, min, exp/log — the shapes the river grammar derives)
// into a register program with every variable treated as forcing.
func benchProgram(b *testing.B) (*RegProgram, []float64, []float64) {
	b.Helper()
	src := "CUA * min(Vn / (Vn + 0.2), Vp / (Vp + 0.02)) * exp(0.07 * Vtmp) * BPhy - CRA * BPhy * BZoo / (BPhy + 10) + log(1 + Vlgt)"
	n, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	vi := map[string]int{"Vn": 0, "Vp": 1, "Vtmp": 2, "Vlgt": 3, "BPhy": 4, "BZoo": 5}
	pi := map[string]int{"CUA": 0, "CRA": 1}
	if err := Bind(n, vi, pi); err != nil {
		b.Fatal(err)
	}
	p, err := CompileReg([]*Node{n}, func(int) bool { return false })
	if err != nil {
		b.Fatal(err)
	}
	vars := []float64{1.5, 0.08, 18, 22, 12, 1.3}
	params := []float64{0.5, 0.3}
	return p, vars, params
}

// BenchmarkEvalOnce measures one unsegmented register-program evaluation
// with a caller-owned register file (every segment runs). Must be 0
// allocs/op.
func BenchmarkEvalOnce(b *testing.B) {
	p, vars, params := benchProgram(b)
	regs := make([]float64, p.NumRegs())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = p.EvalOnce(vars, params, regs)
	}
	_ = sink
}

// BenchmarkTreeEval measures direct tree interpretation of the same
// expression, the baseline that compilation replaces.
func BenchmarkTreeEval(b *testing.B) {
	src := "CUA * min(Vn / (Vn + 0.2), Vp / (Vp + 0.02)) * exp(0.07 * Vtmp) * BPhy - CRA * BPhy * BZoo / (BPhy + 10) + log(1 + Vlgt)"
	n, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{
		VarByName:   map[string]float64{"Vn": 1.5, "Vp": 0.08, "Vtmp": 18, "Vlgt": 22, "BPhy": 12, "BZoo": 1.3},
		ParamByName: map[string]float64{"CUA": 0.5, "CRA": 0.3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := n.Eval(env)
		if err != nil {
			b.Fatal(err)
		}
		sink = v
	}
	_ = sink
}
