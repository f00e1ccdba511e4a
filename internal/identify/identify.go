// Package identify pinpoints device-cloud executables (paper §IV-A).
//
// Device-cloud executables exhibit two features: they contain request
// handlers (function-call sequences between a request-incoming anchor such
// as recv and a response-outgoing anchor such as send whose predicates
// mostly test request fields), and those handlers are invoked asynchronously
// through event-based implicit invocation rather than a direct call chain.
//
// The analysis follows the paper exactly:
//
//  1. collect fun_in / fun_out anchor callsites;
//  2. cluster anchors into pairs by their closest call-graph distance;
//  3. score each pair's function-call sequence with the string-parsing
//     factor P_f = O_r / O (Eq. 1), keeping the best sequence per pair;
//  4. classify a handler as asynchronous when the chain of direct callers
//     above the request-incoming function dead-ends in an address-taken
//     (event-registered) function.
//
// An executable with at least one asynchronous request handler is a
// device-cloud executable.
package identify

import (
	"sort"

	"firmres/internal/callgraph"
	"firmres/internal/dataflow"
	"firmres/internal/externs"
	"firmres/internal/facts"
	"firmres/internal/obs"
	"firmres/internal/pcode"
)

// Handler is one identified request handler.
type Handler struct {
	In       pcode.CallSite    // fun_in anchor callsite
	Out      pcode.CallSite    // fun_out anchor callsite
	Sequence []*pcode.Function // function-call sequence between the anchors
	Score    float64           // score_S = max_f P_f
	ParseFn  *pcode.Function   // arg-max function (the main parsing function)
	Async    bool              // event-based implicit invocation
	Root     *pcode.Function   // topmost function of the handler's caller chain
}

// Result is the identification outcome for one executable.
type Result struct {
	Prog          *pcode.Program
	Handlers      []Handler
	IsDeviceCloud bool
}

// Option configures the analysis.
type Option func(*config)

type config struct {
	fx *facts.Program
}

// WithFacts reads the call graph and per-function artifacts through an
// existing facts store instead of computing private ones, so downstream
// consumers (taint, lint) reuse everything identification solved.
func WithFacts(fx *facts.Program) Option {
	return func(c *config) { c.fx = fx }
}

// Analyze identifies the request handlers of one lifted program and decides
// whether it is a device-cloud executable.
func Analyze(prog *pcode.Program, opts ...Option) *Result {
	cfgOpts := config{}
	for _, o := range opts {
		o(&cfgOpts)
	}
	fx := cfgOpts.fx
	if fx == nil {
		fx = facts.New(prog)
	}
	var met *obs.Metrics = fx.Metrics()
	g := fx.CallGraph()
	res := &Result{Prog: prog}

	ins := anchorSites(g, externs.IsRecv)
	outs := anchorSites(g, externs.IsSend)
	met.Counter("identify_anchors_total", "role", "in").Add(int64(len(ins)))
	met.Counter("identify_anchors_total", "role", "out").Add(int64(len(outs)))
	if len(ins) == 0 || len(outs) == 0 {
		return res
	}

	pairs := pairAnchors(g, ins, outs)
	met.Counter("identify_anchor_pairs_total").Add(int64(len(pairs)))
	for _, pr := range pairs {
		seq := handlerSequence(g, pr)
		if seq == nil {
			continue
		}
		score, parseFn := scoreSequence(fx, pr.in, seq)
		h := Handler{In: pr.in, Out: pr.out, Sequence: seq, Score: score, ParseFn: parseFn}
		h.Async, h.Root = isAsync(g, pr.in.Fn)
		res.Handlers = append(res.Handlers, h)
		if h.Async {
			res.IsDeviceCloud = true
		}
	}
	met.Counter("identify_handlers_total").Add(int64(len(res.Handlers)))
	for _, h := range res.Handlers {
		if h.Async {
			met.Counter("identify_async_handlers_total").Inc()
		}
	}
	return res
}

// anchorSites returns the callsites of imports matching the role predicate,
// in deterministic order.
func anchorSites(g *callgraph.Graph, match func(string) bool) []pcode.CallSite {
	var out []pcode.CallSite
	for _, name := range g.ImportNames() {
		if match(name) {
			out = append(out, g.ImportCallSites(name)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn.Addr() != out[j].Fn.Addr() {
			return out[i].Fn.Addr() < out[j].Fn.Addr()
		}
		return out[i].OpIdx < out[j].OpIdx
	})
	return out
}

type anchorPair struct {
	in, out pcode.CallSite
	dist    int
}

// pairAnchors clusters incoming and outgoing anchors into pairs by their
// closest call-graph distance (Fig. 4). Each fun_in is paired with its
// nearest fun_out; ties resolve to the earliest callsite for determinism.
func pairAnchors(g *callgraph.Graph, ins, outs []pcode.CallSite) []anchorPair {
	var pairs []anchorPair
	for _, in := range ins {
		best := anchorPair{dist: -1}
		for _, out := range outs {
			d := g.Distance(in.Fn, out.Fn)
			if d < 0 {
				continue
			}
			if best.dist < 0 || d < best.dist {
				best = anchorPair{in: in, out: out, dist: d}
			}
		}
		if best.dist >= 0 {
			pairs = append(pairs, best)
		}
	}
	return pairs
}

// handlerSequence returns the function-call sequence S of one anchor pair:
// the functions on the shortest call-graph path between the anchors plus the
// direct callees of those functions. The expansion covers parsing helpers
// that the handler spine calls as siblings of the response path.
func handlerSequence(g *callgraph.Graph, pr anchorPair) []*pcode.Function {
	path := g.Path(pr.in.Fn, pr.out.Fn)
	if path == nil {
		return nil
	}
	seen := make(map[uint32]bool, len(path)*2)
	var seq []*pcode.Function
	add := func(f *pcode.Function) {
		if !seen[f.Addr()] {
			seen[f.Addr()] = true
			seq = append(seq, f)
		}
	}
	for _, f := range path {
		add(f)
		for _, e := range g.Callees(f) {
			add(e.Callee)
		}
	}
	return seq
}

// scoreSequence computes score_S = max over f in S of P_f, returning the
// arg-max function (the main parsing function).
func scoreSequence(fx *facts.Program, in pcode.CallSite, seq []*pcode.Function) (float64, *pcode.Function) {
	best := 0.0
	var bestFn *pcode.Function
	for _, f := range seq {
		pf := parsingFactor(fx.Func(f), in)
		if bestFn == nil || pf > best {
			best = pf
			bestFn = f
		}
	}
	return best, bestFn
}

// parsingFactor computes P_f = O_r / O for one function: the fraction of
// predicate operands that originate from the incoming request.
//
// The request enters f either through the fun_in callsite itself (when the
// callsite is inside f) or through f's parameters (when f sits downstream of
// the receiving function on the handler sequence and the request is passed
// along). Origination is decided by a forward intra-procedural taint.
func parsingFactor(ff *facts.Func, in pcode.CallSite) float64 {
	f := ff.Fn
	du := ff.DefUse()

	// Taint is tracked per storage location (space, offset): partial-width
	// accesses (LB/SB) alias the full register.
	type loc struct {
		space  pcode.Space
		offset uint64
	}
	key := func(v pcode.Varnode) loc { return loc{v.Space, v.Offset} }
	tainted := make(map[loc]bool)
	taintedSlots := make(map[pcode.Varnode]bool)

	seedOp := -1
	if in.Fn.Addr() == f.Addr() {
		// Seed: the recv callsite's buffer argument and return value.
		op := &f.Ops[in.OpIdx]
		if op.HasOut {
			tainted[key(op.Output)] = true
		}
		if len(op.Inputs) >= 2 {
			tainted[key(op.Inputs[1])] = true // buffer pointer
		} else if len(op.Inputs) >= 1 {
			tainted[key(op.Inputs[0])] = true
		}
		seedOp = in.OpIdx
	} else {
		// Seed: the incoming parameters.
		for _, p := range f.Params() {
			tainted[key(p)] = true
		}
	}

	// Forward propagation to fixpoint. Conservative (over-taint): any op
	// with a tainted input taints its output; loads through tainted
	// pointers are tainted; calls propagate args to results.
	for changed := true; changed; {
		changed = false
		for i := range f.Ops {
			op := &f.Ops[i]
			if i <= seedOp && in.Fn.Addr() == f.Addr() {
				// Taint only flows after the recv callsite when seeded there.
				if i < seedOp {
					continue
				}
			}
			switch op.Code {
			case pcode.STORE:
				if slot, ok := du.Slot(i); ok && len(op.Inputs) >= 2 && tainted[key(op.Inputs[1])] {
					if !taintedSlots[slot] {
						taintedSlots[slot] = true
						changed = true
					}
				}
			case pcode.LOAD:
				src := false
				if slot, ok := du.Slot(i); ok {
					src = taintedSlots[slot]
				} else if len(op.Inputs) >= 1 {
					// Pointer-based load: tainted pointer taints the value.
					// A tainted base needs no separate check: the lifter
					// emits the INT_ADD computing the address just before
					// the LOAD, and this sweep has just tainted its output
					// through the default case.
					src = tainted[key(op.Inputs[0])]
				}
				if src && op.HasOut && !tainted[key(op.Output)] {
					tainted[key(op.Output)] = true
					changed = true
				}
			default:
				if !op.HasOut {
					continue
				}
				for _, inpt := range op.Inputs {
					if tainted[key(inpt)] {
						if !tainted[key(op.Output)] {
							tainted[key(op.Output)] = true
							changed = true
						}
						break
					}
				}
			}
		}
	}

	var total, fromRequest int
	for i := range f.Ops {
		op := &f.Ops[i]
		if !op.Code.IsComparison() {
			continue
		}
		for _, inpt := range op.Inputs {
			if inpt.IsConst() || isFoldedConstant(f, du, i, inpt) {
				continue // constants are not counted as operands of interest
			}
			total++
			if tainted[key(inpt)] {
				fromRequest++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fromRequest) / float64(total)
}

// isFoldedConstant reports whether a register operand holds a compiler-
// materialized constant at its use: every reaching definition is a COPY of a
// const varnode. Decompilers fold such operands back into literals, so the
// string-parsing factor must not count them as variable operands.
func isFoldedConstant(f *pcode.Function, du *dataflow.DefUse, useIdx int, v pcode.Varnode) bool {
	if v.Space != pcode.SpaceReg {
		return false
	}
	var buf [4]int
	defs := du.AppendReachingDefs(buf[:0], useIdx, v)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		op := &f.Ops[d]
		if op.Code != pcode.COPY || len(op.Inputs) != 1 || !op.Inputs[0].IsConst() {
			return false
		}
	}
	return true
}

// isAsync walks the chain of direct callers above the function containing
// the fun_in callsite. The handler is asynchronous when the walk dead-ends
// in a function with no direct callers whose address is taken (registered
// as an event callback) — event-based implicit invocation. It returns the
// topmost function reached.
func isAsync(g *callgraph.Graph, inFn *pcode.Function) (bool, *pcode.Function) {
	seen := map[uint32]bool{}
	cur := inFn
	for {
		if seen[cur.Addr()] {
			// Caller cycle: treat as synchronous (mutual recursion implies
			// direct invocation).
			return false, cur
		}
		seen[cur.Addr()] = true
		callers := g.Callers(cur)
		if len(callers) == 0 {
			return len(g.AddressTaken(cur)) > 0, cur
		}
		// Follow the first caller; handler spines are linear in practice and
		// any direct caller disqualifies asynchrony at this level anyway.
		cur = callers[0].Caller
	}
}
