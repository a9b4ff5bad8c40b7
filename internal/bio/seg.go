package bio

import (
	"math"

	"gmr/internal/expr"
)

// This file implements the segmented simulation path (DESIGN.md §10): both
// derivative trees are compiled together into one register program
// (expr.CompileReg) whose instructions are split by dependency into
// EXOG / PARAM / DAY / STEP segments. The forward-Euler kernel then only
// executes the STEP segment per substep; everything loop-invariant is
// hoisted:
//
//   - EXOG instructions run once per (structure, forcing series) into a
//     T×k matrix (ExogPlan) that internal/evalx caches as "tier 1.5";
//   - PARAM instructions run once per parameter vector (Prologue);
//   - DAY instructions run once per day (forcing is constant within a day).
//
// SegSystem is the single compiled simulation engine: the scalar Kernel
// here and the lane kernel in lanes.go. Its semantics match the
// tree-interpreting System.RunBuf (the reference oracle) — the differential
// tests in seg_test.go and evalx enforce this.

// SegSystem is the segmented compiled form of a System: one immutable
// register program with two roots (dBPhy/dt, dBZoo/dt) sharing common
// subexpressions. It carries no mutable state and is safe for concurrent
// use with per-goroutine SimScratch register files.
type SegSystem struct {
	Prog *expr.RegProgram
}

// NewSegSystem compiles both derivative trees into a shared segmented
// register program. State variables (BPhy, BZoo) feed the STEP segment; all
// other variables are treated as exogenous forcing.
func NewSegSystem(phy, zoo *expr.Node) (*SegSystem, error) {
	p, err := expr.CompileReg([]*expr.Node{phy, zoo}, func(idx int) bool {
		return idx == IdxBPhy || idx == IdxBZoo
	})
	if err != nil {
		return nil, err
	}
	return &SegSystem{Prog: p}, nil
}

// ExogPlan is the hoisted exogenous matrix for one (SegSystem, forcing
// series) pair: plan row t holds the k live-out exogenous register values
// for day t. An ExogPlan is immutable after construction and safe to share
// across goroutines; internal/evalx caches one per structure ("tier 1.5").
type ExogPlan struct {
	mat  []float64
	k    int
	days int
}

// Days returns the number of forcing rows the plan covers.
func (p *ExogPlan) Days() int { return p.days }

// Width returns k, the number of hoisted exogenous registers per day.
func (p *ExogPlan) Width() int { return p.k }

// BuildExogPlan evaluates the EXOG segment over the forcing series. It
// allocates the matrix and a temporary register file; it is intended to run
// once per (structure, dataset) and be cached.
func (s *SegSystem) BuildExogPlan(forcing [][]float64) *ExogPlan {
	k := s.Prog.ExogWidth()
	plan := &ExogPlan{
		mat:  make([]float64, len(forcing)*k),
		k:    k,
		days: len(forcing),
	}
	regs := make([]float64, s.Prog.NumRegs())
	s.Prog.EvalExog(forcing, regs, plan.mat)
	return plan
}

// Prologue sizes the scratch register file and runs the per-candidate
// parameter segment (constant pool + parameter loads + forcing-free
// arithmetic). It must be called once per parameter vector before Kernel.
func (s *SegSystem) Prologue(params []float64, sc *SimScratch) {
	sc.regs = growBuf(sc.regs, s.Prog.NumRegs())
	s.Prog.EvalParam(params, sc.regs)
}

// Kernel integrates the system over the plan's days using the precomputed
// exogenous matrix. Prologue must have run first with the same scratch.
// Semantics (Euler stepping, clamping, non-finite abort, perStep hook and
// early stop) match System.RunBuf exactly; the returned slice aliases sc.
// Steady-state calls with a reused SimScratch are allocation-free.
func (s *SegSystem) Kernel(plan *ExogPlan, cfg SimConfig, sc *SimScratch, perStep func(t int, bphy float64) bool) []float64 {
	cfg = cfg.withDefaults()
	preds := sc.preds[:0]
	bphy, bzoo := cfg.Phy0, cfg.Zoo0
	sc.vars = growBuf(sc.vars, NumVars)
	vars, regs := sc.vars, sc.regs
	prog, k := s.Prog, plan.k
	h := 1.0 / float64(cfg.SubSteps)
	for t := 0; t < plan.days; t++ {
		if k > 0 {
			prog.LoadExogRow(plan.mat[t*k:t*k+k], regs)
		}
		prog.EvalDay(regs)
		for step := 0; step < cfg.SubSteps; step++ {
			vars[IdxBPhy] = bphy
			vars[IdxBZoo] = bzoo
			prog.EvalStep(vars, regs)
			dPhy := prog.Root(0, regs)
			dZoo := prog.Root(1, regs)
			bphy += h * dPhy
			bzoo += h * dZoo
			if bad, abort := nonFinite(bphy, bzoo); abort {
				preds = append(preds, math.NaN())
				sc.preds = preds
				if perStep != nil {
					perStep(t, bad)
				}
				return preds
			}
			bphy = clamp(bphy, cfg.ClampMin, cfg.ClampMax)
			bzoo = clamp(bzoo, cfg.ClampMin, cfg.ClampMax)
		}
		preds = append(preds, bphy)
		if perStep != nil && !perStep(t, bphy) {
			sc.preds = preds
			return preds
		}
	}
	sc.preds = preds
	return preds
}

// Day loads plan day t into the scratch register file and runs the DAY
// segment; Derivs then evaluates both derivatives at a state within that
// day. Prologue must have run first with the same scratch. The pair exposes
// one Euler substep of Kernel to callers that integrate with their own
// update rule (the dataset generator tracks both state variables and never
// aborts).
func (s *SegSystem) Day(plan *ExogPlan, t int, sc *SimScratch) {
	if k := plan.k; k > 0 {
		s.Prog.LoadExogRow(plan.mat[t*k:t*k+k], sc.regs)
	}
	s.Prog.EvalDay(sc.regs)
}

// Derivs returns (dBPhy/dt, dBZoo/dt) at state (bphy, bzoo) for the day
// loaded by Day, exactly as Kernel computes them.
func (s *SegSystem) Derivs(bphy, bzoo float64, sc *SimScratch) (dPhy, dZoo float64) {
	sc.vars = growBuf(sc.vars, NumVars)
	sc.vars[IdxBPhy] = bphy
	sc.vars[IdxBZoo] = bzoo
	s.Prog.EvalStep(sc.vars, sc.regs)
	return s.Prog.Root(0, sc.regs), s.Prog.Root(1, sc.regs)
}

// Run is the convenience entry point: it builds a throwaway exogenous plan,
// runs the prologue, and invokes the kernel. Hot paths (internal/evalx)
// cache the plan and call Prologue+Kernel directly instead.
func (s *SegSystem) Run(forcing [][]float64, params []float64, cfg SimConfig, sc *SimScratch, perStep func(t int, bphy float64) bool) []float64 {
	plan := s.BuildExogPlan(forcing)
	s.Prologue(params, sc)
	return s.Kernel(plan, cfg, sc, perStep)
}

// Predict is Run with fresh scratch and no hook; the returned slice is
// caller-owned.
func (s *SegSystem) Predict(forcing [][]float64, params []float64, cfg SimConfig) []float64 {
	preds := s.Run(forcing, params, cfg, &SimScratch{}, nil)
	return append([]float64(nil), preds...)
}
