package externs

import "sort"

// Shape is the name-blind behavioral key of an extern signature: the only
// facts about a callee that survive symbol stripping. A stripped import
// entry still reveals whether the callee's result is consumed (the calling
// convention is observable in machine code), and each callsite encodes its
// own argument count — so arity and result use together carve the signature
// database into small candidate groups that behavioral matching
// (internal/strip) disambiguates.
type Shape struct {
	NumParams int // Variadic for per-callsite arity
	HasResult bool
}

// SigIndex groups the extern signature database by Shape. Within a group,
// signatures keep Table order, which doubles as the deterministic
// tie-breaker for behavioral matching. An index is immutable once built,
// and its methods return copies, so one index can serve every caller in a
// process.
type SigIndex struct {
	byShape map[Shape][]Sig
	// oneArity holds, per fixed-arity shape, the candidate list of an
	// import observed at that single arity: the shape's group and the
	// variadic group of the same result use, merged in Table order.
	oneArity map[Shape][]Sig
}

// NewSigIndex builds the name-blind index over the full extern Table.
func NewSigIndex() *SigIndex {
	ix := &SigIndex{byShape: make(map[Shape][]Sig), oneArity: make(map[Shape][]Sig)}
	for _, s := range Table {
		k := Shape{NumParams: s.NumParams, HasResult: s.HasResult}
		ix.byShape[k] = append(ix.byShape[k], s)
	}
	for k := range ix.byShape {
		if k.NumParams == Variadic {
			continue
		}
		for _, s := range Table {
			if s.HasResult == k.HasResult && (s.NumParams == k.NumParams || s.NumParams == Variadic) {
				ix.oneArity[k] = append(ix.oneArity[k], s)
			}
		}
	}
	return ix
}

// Shapes returns every distinct shape in the index, sorted (fixed arities
// ascending, Variadic last, no-result before result). Mostly for tests and
// reporting.
func (ix *SigIndex) Shapes() []Shape {
	out := make([]Shape, 0, len(ix.byShape))
	for k := range ix.byShape {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		// Variadic (-1) sorts after every fixed arity.
		ai, bi := a.NumParams, b.NumParams
		if ai == Variadic {
			ai = int(^uint(0) >> 1)
		}
		if bi == Variadic {
			bi = int(^uint(0) >> 1)
		}
		if ai != bi {
			return ai < bi
		}
		return !a.HasResult && b.HasResult
	})
	return out
}

// Group returns the signatures registered under one exact shape, in Table
// order.
func (ix *SigIndex) Group(k Shape) []Sig {
	return append([]Sig(nil), ix.byShape[k]...)
}

// Candidates returns every signature compatible with the observed callsite
// arities and result use of one unresolved import, in Table order:
//
//   - no observed callsites: nothing can be said, no candidates;
//   - one distinct arity a: fixed-arity signatures with NumParams == a,
//     plus every variadic signature (a variadic callee accepts any single
//     arity too);
//   - several distinct arities: only variadic signatures remain — a
//     fixed-arity callee cannot be called with two different counts.
//
// HasResult must match exactly in all cases.
func (ix *SigIndex) Candidates(arities []int, hasResult bool) []Sig {
	if len(arities) == 0 {
		return nil
	}
	single := true
	for _, a := range arities[1:] {
		single = single && a == arities[0]
	}
	sigs := ix.byShape[Shape{NumParams: Variadic, HasResult: hasResult}]
	if one, ok := ix.oneArity[Shape{NumParams: arities[0], HasResult: hasResult}]; ok && single {
		sigs = one
	}
	return append([]Sig(nil), sigs...)
}
