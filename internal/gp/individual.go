// Package gp implements the TAG3P evolutionary engine of the GMR framework
// (Section III-B): a population of TAG derivation trees plus constant
// parameters, evolved by tournament selection, elitism, grammar-respecting
// crossover and subtree mutation, Gaussian mutation of constants, and
// stochastic hill-climbing local search via insertion/deletion.
package gp

import (
	"math"

	"gmr/internal/expr"
	"gmr/internal/tag"
)

// Individual is one candidate model: a derivation tree (structure) and a
// constant-parameter vector (Table III values). Random constants (R) in
// revisions live as literal leaves inside the derivation tree's lexemes.
type Individual struct {
	Deriv  *tag.DerivNode
	Params []float64

	// Fitness is the evaluated training fitness (lower is better);
	// +Inf until evaluated.
	Fitness float64
	// Evaluated reports whether Fitness is meaningful.
	Evaluated bool
	// FullEval reports whether the last evaluation ran every fitness
	// case (false when evaluation was short-circuited).
	FullEval bool

	// structKey memoizes the evaluator's canonical structure key ("" =
	// unknown) so param-only re-evaluations skip re-deriving and
	// re-printing the tree. It survives Clone, replication, and
	// parameter-only Gaussian mutation, and is cleared by every
	// structural edit (and by literal perturbations, which change the
	// derived expression). See evalx's tier-1 structure cache.
	structKey string
}

// NewIndividual wraps a derivation tree and parameter vector with an
// unevaluated fitness.
func NewIndividual(d *tag.DerivNode, params []float64) *Individual {
	return &Individual{Deriv: d, Params: append([]float64(nil), params...), Fitness: math.Inf(1)}
}

// Clone deep-copies the individual, including its evaluation state and
// memoized structure key.
func (ind *Individual) Clone() *Individual {
	return &Individual{
		Deriv:     ind.Deriv.Clone(),
		Params:    append([]float64(nil), ind.Params...),
		Fitness:   ind.Fitness,
		Evaluated: ind.Evaluated,
		FullEval:  ind.FullEval,
		structKey: ind.structKey,
	}
}

// Invalidate marks the individual as needing re-evaluation after a
// parameter change. The memoized structure key is kept: parameter moves do
// not change the derived structure.
func (ind *Individual) Invalidate() {
	ind.Fitness = math.Inf(1)
	ind.Evaluated = false
	ind.FullEval = false
}

// InvalidateStructure marks the individual as needing re-evaluation after
// a structural edit (crossover subtree swap, subtree mutation, insertion,
// deletion, literal perturbation): fitness AND the memoized structure key
// are discarded.
func (ind *Individual) InvalidateStructure() {
	ind.Invalidate()
	ind.structKey = ""
}

// StructKey returns the memoized canonical structure key, or "" when it
// has not been computed since the last structural edit.
func (ind *Individual) StructKey() string { return ind.structKey }

// SetStructKey memoizes the canonical structure key computed by an
// evaluator. Callers other than evaluators should not use this.
func (ind *Individual) SetStructKey(k string) { ind.structKey = k }

// Size returns the derivation-tree size (the paper's chromosome size).
func (ind *Individual) Size() int { return ind.Deriv.Size() }

// RLiterals returns pointers to every random-constant literal in the
// individual's lexemes, the mutable revision constants targeted by Gaussian
// mutation alongside Params.
func (ind *Individual) RLiterals() []*expr.Node {
	var lits []*expr.Node
	ind.Deriv.Walk(func(n, _ *tag.DerivNode) bool {
		for _, l := range n.Lexemes {
			l.Walk(func(m *expr.Node) bool {
				if m.Kind == expr.Lit {
					lits = append(lits, m)
				}
				return true
			})
		}
		return true
	})
	return lits
}

// Evaluator scores individuals. It is the engine's one evaluation
// contract: every evaluation the engine issues — the generation's
// population, the champion-refinement proposals and the local-search
// candidates — is resolved with ResolveStruct, partitioned by memoized
// structure key, and scored with EvaluateCluster one same-structure chunk
// at a time; a lone candidate is a cluster of 1 (DESIGN.md §14).
// Implementations must be safe for concurrent calls between BeginBatch
// and EndBatch; the engine freezes any shared evaluation state (e.g. the
// short-circuiting threshold's best-previous-full fitness) across a batch
// by calling the batch hooks.
type Evaluator interface {
	// BeginBatch snapshots shared state for a deterministic batch.
	BeginBatch()
	// EndBatch commits state accumulated during the batch.
	EndBatch()
	// ResolveStruct resolves the individual's executable structure and
	// memoizes its canonical key on the individual (StructKey), without
	// simulating. Individuals left without a key are scored as singleton
	// clusters, so an evaluator with no structure cache may make it a
	// no-op. Whatever it counts, EvaluateCluster must not count again:
	// one ResolveStruct followed by one EvaluateCluster is one evaluation.
	ResolveStruct(ind *Individual)
	// NoteCluster records one scheduled evaluation cluster of the given
	// size (telemetry only: cluster counts, singleton fallbacks, and the
	// cluster-size histogram).
	NoteCluster(size int)
	// EvaluateCluster scores the unevaluated individuals of one cluster —
	// all sharing one memoized structure key, or a single key-less
	// individual — with semantics equivalent to scoring them one by one in
	// slice order: identical fitnesses, quarantine classification,
	// fault-injection sites, and cache interactions. Already evaluated
	// members are skipped.
	//
	// Panic protocol: when a member's evaluation panics (injected faults),
	// the implementation commits every earlier member's result before the
	// panic escapes, so the first unevaluated member in slice order is the
	// panicker. The engine quarantines it and re-invokes EvaluateCluster
	// on the remainder.
	EvaluateCluster(inds []*Individual)
}

// Prior is the Gaussian-mutation prior of one constant parameter: its
// expected value and exploration bounds (a Table III row), per Section
// III-B3.
type Prior struct {
	Mean, Min, Max float64
}
