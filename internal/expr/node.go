// Package expr implements the expression trees that represent process
// equations in the GMR framework: construction, guarded evaluation,
// algebraic simplification, canonical printing, parsing, and compilation to
// a segmented register-VM program (the library's stand-in for the paper's
// runtime compilation, see DESIGN.md §3).
//
// Expression trees double as the *object-level* trees of the TAG machinery:
// a node may carry a grammar label (Sym) marking it as an adjunction site,
// a substitution site, or the foot node of an auxiliary tree. Completed
// trees (no substitution sites or foot nodes) are evaluable.
package expr

import "fmt"

// Kind discriminates the node variants of an expression tree.
type Kind uint8

const (
	// Lit is a literal floating-point constant.
	Lit Kind = iota
	// Param is a named model constant (e.g. CUA); its value is read from
	// the parameter vector of the individual being evaluated.
	Param
	// Var is a named temporal variable (e.g. Vtmp) or state variable
	// (BPhy, BZoo); its value is read from the variable vector at the
	// current time step.
	Var
	// Unary applies Op to Kids[0].
	Unary
	// Binary applies Op to Kids[0] and Kids[1].
	Binary
	// Nary applies Op (OpMin or OpMax) across all Kids.
	Nary
	// SubSite is an open substitution site (marked ↓ in the paper); it
	// must be filled by a lexeme before evaluation.
	SubSite
	// Foot is the foot node of an auxiliary tree (marked * in the paper);
	// it is replaced by the displaced subtree during adjunction.
	Foot
)

// Op enumerates the operators usable at Unary, Binary, and Nary nodes.
type Op uint8

const (
	OpNone Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpLog
	OpExp
	OpMin
	OpMax
)

// String returns the surface syntax of the operator.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpNeg:
		return "neg"
	case OpLog:
		return "log"
	case OpExp:
		return "exp"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return "?"
	}
}

// Node is one node of an expression tree. Nodes are mutable and trees are
// assumed to be node-disjoint: use Clone before structural edits on shared
// trees.
type Node struct {
	Kind Kind
	Op   Op
	Val  float64 // literal value (Lit)
	Name string  // parameter or variable name (Param, Var)
	// Index is the position of a Param or Var in its vector, resolved by
	// Bind. It is -1 until bound.
	Index int
	// Sym is the grammar label of this node. Interior nodes labeled with a
	// nonterminal are adjunction addresses; SubSite and Foot nodes use Sym
	// to state which lexeme/root symbol they accept.
	Sym  string
	Kids []*Node
}

// NewLit returns a literal node with value v.
func NewLit(v float64) *Node { return &Node{Kind: Lit, Val: v, Index: -1} }

// NewParam returns an unbound model-constant node named name.
func NewParam(name string) *Node { return &Node{Kind: Param, Name: name, Index: -1} }

// NewVar returns an unbound temporal/state-variable node named name.
func NewVar(name string) *Node { return &Node{Kind: Var, Name: name, Index: -1} }

// NewUnary returns op(kid).
func NewUnary(op Op, kid *Node) *Node {
	return &Node{Kind: Unary, Op: op, Kids: []*Node{kid}, Index: -1}
}

// NewBinary returns (a op b).
func NewBinary(op Op, a, b *Node) *Node {
	return &Node{Kind: Binary, Op: op, Kids: []*Node{a, b}, Index: -1}
}

// NewNary returns op(kids...) for OpMin/OpMax.
func NewNary(op Op, kids ...*Node) *Node {
	return &Node{Kind: Nary, Op: op, Kids: kids, Index: -1}
}

// Convenience constructors for the common operators.

// Add returns (a + b).
func Add(a, b *Node) *Node { return NewBinary(OpAdd, a, b) }

// Sub returns (a - b).
func Sub(a, b *Node) *Node { return NewBinary(OpSub, a, b) }

// Mul returns (a * b).
func Mul(a, b *Node) *Node { return NewBinary(OpMul, a, b) }

// Div returns (a / b).
func Div(a, b *Node) *Node { return NewBinary(OpDiv, a, b) }

// Neg returns (-a).
func Neg(a *Node) *Node { return NewUnary(OpNeg, a) }

// Log returns the guarded natural logarithm of a.
func Log(a *Node) *Node { return NewUnary(OpLog, a) }

// Exp returns the guarded exponential of a.
func Exp(a *Node) *Node { return NewUnary(OpExp, a) }

// Min returns min(kids...).
func Min(kids ...*Node) *Node { return NewNary(OpMin, kids...) }

// Max returns max(kids...).
func Max(kids ...*Node) *Node { return NewNary(OpMax, kids...) }

// NewSubSite returns an open substitution site accepting lexemes of symbol
// sym.
func NewSubSite(sym string) *Node { return &Node{Kind: SubSite, Sym: sym, Index: -1} }

// NewFoot returns a foot node of symbol sym.
func NewFoot(sym string) *Node { return &Node{Kind: Foot, Sym: sym, Index: -1} }

// Labeled sets the grammar label of n and returns n, for fluent tree
// construction.
func (n *Node) Labeled(sym string) *Node {
	n.Sym = sym
	return n
}

// Clone returns a deep copy of the tree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := *n
	if n.Kids != nil {
		cp.Kids = make([]*Node, len(n.Kids))
		for i, k := range n.Kids {
			cp.Kids[i] = k.Clone()
		}
	}
	return &cp
}

// Size returns the number of nodes in the tree rooted at n.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, k := range n.Kids {
		s += k.Size()
	}
	return s
}

// Depth returns the height of the tree rooted at n (a leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, k := range n.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Walk calls fn for every node of the tree in pre-order. If fn returns
// false, the node's subtree is not descended into.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, k := range n.Kids {
		k.Walk(fn)
	}
}

// WalkParents calls fn(parent, childIndex) for every parent→child edge in
// pre-order, enabling in-place subtree replacement.
func (n *Node) WalkParents(fn func(parent *Node, childIdx int) bool) {
	if n == nil {
		return
	}
	for i, k := range n.Kids {
		if !fn(n, i) {
			continue
		}
		k.WalkParents(fn)
	}
}

// Complete reports whether the tree contains no substitution sites and no
// foot nodes, i.e. whether it is a completed (evaluable) tree.
func (n *Node) Complete() bool {
	ok := true
	n.Walk(func(m *Node) bool {
		if m.Kind == SubSite || m.Kind == Foot {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Validate checks structural invariants: arity per kind, known operators,
// and that Nary nodes have at least two children. It returns the first
// violation found.
func (n *Node) Validate() error {
	var check func(m *Node) error
	check = func(m *Node) error {
		if m == nil {
			return fmt.Errorf("expr: nil node")
		}
		switch m.Kind {
		case Lit, Param, Var, SubSite, Foot:
			if len(m.Kids) != 0 {
				return fmt.Errorf("expr: leaf node %v has %d children", m.Kind, len(m.Kids))
			}
			if (m.Kind == Param || m.Kind == Var) && m.Name == "" {
				return fmt.Errorf("expr: unnamed %v node", m.Kind)
			}
		case Unary:
			if len(m.Kids) != 1 {
				return fmt.Errorf("expr: unary %s has %d children", m.Op, len(m.Kids))
			}
			if m.Op != OpNeg && m.Op != OpLog && m.Op != OpExp {
				return fmt.Errorf("expr: invalid unary operator %s", m.Op)
			}
		case Binary:
			if len(m.Kids) != 2 {
				return fmt.Errorf("expr: binary %s has %d children", m.Op, len(m.Kids))
			}
			switch m.Op {
			case OpAdd, OpSub, OpMul, OpDiv:
			default:
				return fmt.Errorf("expr: invalid binary operator %s", m.Op)
			}
		case Nary:
			if m.Op != OpMin && m.Op != OpMax {
				return fmt.Errorf("expr: invalid n-ary operator %s", m.Op)
			}
			if len(m.Kids) < 2 {
				return fmt.Errorf("expr: n-ary %s has %d children", m.Op, len(m.Kids))
			}
		default:
			return fmt.Errorf("expr: unknown node kind %d", m.Kind)
		}
		for _, k := range m.Kids {
			if err := check(k); err != nil {
				return err
			}
		}
		return nil
	}
	return check(n)
}

// Params returns the distinct parameter names appearing in the tree, in
// first-appearance order.
func (n *Node) Params() []string {
	seen := map[string]bool{}
	var out []string
	n.Walk(func(m *Node) bool {
		if m.Kind == Param && !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
		return true
	})
	return out
}

// Vars returns the distinct variable names appearing in the tree, in
// first-appearance order.
func (n *Node) Vars() []string {
	seen := map[string]bool{}
	var out []string
	n.Walk(func(m *Node) bool {
		if m.Kind == Var && !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
		return true
	})
	return out
}
