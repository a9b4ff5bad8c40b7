// Cluster evaluation (DESIGN.md §14): the gp engine's structure-clustered
// scheduler partitions each generation and each champion-refinement round
// by memoized structure key and hands every same-structure cluster (a
// local-search candidate is a cluster of 1) to EvaluateCluster, which scores
// the members through the lane-batched kernel with per-member semantics
// bitwise equal to sequential scalar Evaluate calls — the same fitnesses,
// fault-injection sites, quarantine classification, and tier-2 cache
// interactions in input order. ResolveStruct is the hoisted front half of a
// scalar evaluation (resolve + memoize the structure key), run once per
// individual before the partition so clusters form without re-derivation.
package evalx

import (
	"bytes"
	"math/bits"

	"gmr/internal/gp"
)

// ResolveStruct resolves the individual's executable structure through the
// tier-1 cache and memoizes the canonical key on the individual, counting
// exactly what the resolution step of a plain Evaluate call counts (tier-1
// hit, or derive + compile). EvaluateCluster relies on it having run: it
// looks the entry up by the memoized key without counting a second resolve.
// No-op when caching is disabled (the uncached pipeline has no keys).
func (e *Evaluator) ResolveStruct(ind *gp.Individual) {
	if !e.opts.UseCache {
		return
	}
	e.structFor(ind)
}

// NoteCluster records one scheduled evaluation cluster for the population-
// scheduler telemetry: multi-member clusters, singleton scalar fallbacks,
// and the power-of-two cluster-size histogram.
func (e *Evaluator) NoteCluster(size int) {
	if size <= 0 {
		return
	}
	if size == 1 {
		e.ctr.popScalarFalls.Add(1)
	} else {
		e.ctr.popClusters.Add(1)
	}
	e.ctr.popClusterHist[histBucket(size)].Add(1)
}

// histBucket maps a cluster size to its power-of-two histogram bucket:
// 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, >64.
func histBucket(size int) int {
	return min(bits.Len(uint(size-1)), PopHistBuckets-1)
}

// EvaluateCluster scores the unevaluated members of one same-structure
// cluster (gp.Evaluator). Callers must ResolveStruct every member first;
// the members' shared memoized key then locates the tier-1 entry without a
// second counted resolve. Per-member semantics equal sequential Evaluate
// calls in slice order; on an injected panic, every member before the
// panicker is committed first (the gp.Evaluator panic protocol).
func (e *Evaluator) EvaluateCluster(inds []*gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	var first *gp.Individual
	npend := 0
	for _, ind := range inds {
		if !ind.Evaluated {
			if first == nil {
				first = ind
			}
			npend++
		}
	}
	if first == nil {
		return
	}
	var key string
	var ent *structEntry
	if e.opts.UseCache {
		if key = first.StructKey(); key != "" && key[0] == e.keyTag {
			ent = e.lookupStruct(key)
		}
		if ent != nil && !ent.bad && ent.seg != nil && npend > 1 && e.opts.EvalDeadline == 0 {
			e.evaluateClusterLanes(ent, key, inds, sc)
			return
		}
	}
	// Member by member otherwise. Singleton clusters, structures without a
	// segmented program, and deadline-bounded configurations run the shared
	// resolved-entry pipeline; a panic escapes with every earlier member
	// committed, satisfying the panic protocol for free.
	for _, ind := range inds {
		switch {
		case ind.Evaluated:
		case !e.opts.UseCache:
			fitness, full := e.evalUncached(ind, ind.Params, sc)
			ind.Fitness, ind.Evaluated, ind.FullEval = fitness, true, full
		case key == "" || (ent != nil && ent.bad):
			// ResolveStruct failed to derive this structure (and counted
			// the failed derive), or it failed to build: quarantine without
			// re-deriving, as the scalar path's single structFor would.
			e.markBadStructure(ind)
		case ent == nil:
			// Key memoized by a differently-configured evaluator, or the
			// caller skipped ResolveStruct: a full scalar evaluation
			// re-resolves (and counts) per member.
			e.Evaluate(ind)
		default:
			e.evaluateResolved(ind, ent, key, sc)
		}
	}
}

// evaluateClusterLanes is the lane-batched body of EvaluateCluster. Phase 1
// walks the members in input order — counters, the fault-injection and
// tier-2 prelude, intra-cluster duplicate detection — collecting the cache
// misses as pending lane members; the lane scorer then simulates them and
// commits each in input order with a tier-2 insert, exactly like scalar
// evaluation: clones, elites, and next-generation duplicates replay these
// keys. Champion-refinement sweeps insert too; a proposal is rarely
// replayed, so that costs one key string per simulated member.
//
// An injected panic at member i is deferred: phase 1 stops there (member i
// counted but not simulated, later members untouched), the pending prefix
// simulates and commits, then the panic is re-raised — so the engine's
// recovery quarantines exactly member i and re-invokes on the tail.
func (e *Evaluator) evaluateClusterLanes(ent *structEntry, key string, inds []*gp.Individual, sc *evalScratch) {
	pending := sc.lane[:0]
	dups := sc.dups[:0]
	sc.ckeys = sc.ckeys[:0]
	var deferred any

	for i, ind := range inds {
		if ind.Evaluated {
			continue
		}
		e.countEval()
		off := len(sc.ckeys)
		sc.ckeys = appendFitKey(sc.ckeys, key, ind.Params)
		kb := sc.ckeys[off:]
		site, hit, ok := e.probeFit(kb, &deferred)
		if deferred != nil {
			sc.ckeys = sc.ckeys[:off]
			break
		}
		if ok {
			ind.Fitness, ind.Evaluated, ind.FullEval = hit.fitness, true, hit.full
			sc.ckeys = sc.ckeys[:off]
			continue
		}
		// Intra-cluster duplicate of a pending member: sequential order
		// would simulate the first occurrence and serve this one from
		// tier 2, so adopt the source's result after it commits.
		dup := false
		for j := range pending {
			pk := sc.ckeys[pending[j].keyOff : pending[j].keyOff+pending[j].keyLen]
			if bytes.Equal(pk, kb) {
				dups = append(dups, dupPair{dst: ind, src: inds[pending[j].idx]})
				dup = true
				break
			}
		}
		if dup {
			sc.ckeys = sc.ckeys[:off]
			continue
		}
		// Cache miss: this member simulates. The plan lookup is counted per
		// simulated member, like the scalar path's planFor inside simulate.
		e.planFor(ent)
		lm := e.member(i, ind.Params, site)
		lm.keyOff, lm.keyLen = off, len(kb)
		pending = append(pending, lm)
	}
	sc.lane = pending
	sc.dups = dups

	e.scoreLanes(ent, pending, inds, sc)
	for _, d := range dups {
		e.ctr.cacheHits.Add(1)
		d.dst.Fitness, d.dst.Evaluated, d.dst.FullEval = d.src.Fitness, true, d.src.FullEval
	}
	if deferred != nil {
		panic(deferred)
	}
}

var _ gp.Evaluator = (*Evaluator)(nil)
