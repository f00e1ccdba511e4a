package taint

import (
	"context"

	"firmres/internal/binfmt"
	"firmres/internal/callgraph"
	"firmres/internal/constprop"
	"firmres/internal/dataflow"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/obs"
	"firmres/internal/parallel"
	"firmres/internal/pcode"
)

// Options bound the backward analysis. Zero values select the defaults.
type Options struct {
	MaxDepth int // recursion depth cap (default 48)
	MaxNodes int // per-tree node budget (default 4096)
	// NoStoreChannel disables the raw-STORE buffer-content channel: the
	// precise-taint ablation. It removes the disassembly-noise false
	// positives at the cost of missing fields written through memory.
	NoStoreChannel bool
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 48
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 4096
	}
	return o
}

// Engine runs backward taint analyses over one lifted program. Per-function
// artifacts (CFG, def-use, constant propagation) and the call graph are
// read through the shared facts store, so an engine handed the pipeline's
// store never recomputes what identification or lint already solved. Safe
// for concurrent tracing: the engine itself is immutable after construction
// and the facts store single-flights its artifacts.
type Engine struct {
	prog *pcode.Program
	fx   *facts.Program
	opts Options

	// Pre-resolved metric instruments (no-ops when the facts store carries
	// no registry), so the hot tracing path pays one atomic op, not a map
	// lookup.
	sitesC, mftsC, stepsC, exhaustedC *obs.Counter
	stepsH, frontierH                 *obs.Histogram
}

// NewEngine prepares an engine for prog with a private facts store.
func NewEngine(prog *pcode.Program, opts Options) *Engine {
	return NewEngineFacts(facts.New(prog), opts)
}

// NewEngineFacts prepares an engine reading through an existing facts
// store, sharing every per-function artifact already computed for fx's
// program.
func NewEngineFacts(fx *facts.Program, opts Options) *Engine {
	met := fx.Metrics()
	return &Engine{
		prog: fx.Prog(), fx: fx, opts: opts.withDefaults(),
		sitesC:     met.Counter("taint_delivery_sites_total"),
		mftsC:      met.Counter("taint_mfts_total"),
		stepsC:     met.Counter("taint_trace_steps_total"),
		exhaustedC: met.Counter("taint_budget_exhausted_total"),
		stepsH:     met.Histogram("taint_steps_per_mft"),
		frontierH:  met.Histogram("taint_frontier_per_mft"),
	}
}

// du returns the shared def-use solution for fn.
func (e *Engine) du(fn *pcode.Function) *dataflow.DefUse {
	return e.fx.Func(fn).DefUse()
}

// consts returns the shared constant-propagation solution for fn.
func (e *Engine) consts(fn *pcode.Function) *constprop.Result {
	return e.fx.Func(fn).Consts()
}

// callers returns the call-graph edges into fn.
func (e *Engine) callers(fn *pcode.Function) []callgraph.Edge {
	return e.fx.CallGraph().Callers(fn)
}

// Analyze builds one MFT per device-cloud message construction: every
// delivery callsite, forked per caller when the message buffer arrives
// through a wrapper parameter.
func (e *Engine) Analyze() []*MFT {
	return e.AnalyzeContext(context.Background(), 1)
}

// AnalyzeContext is Analyze tracing delivery callsites on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS). Results are collected into
// per-callsite slots and flattened in program order, so the MFT sequence is
// identical at any worker count. A cancelled ctx stops claiming new
// callsites; a panic while tracing is re-raised on the calling goroutine,
// preserving the stage-recovery semantics of a sequential run.
func (e *Engine) AnalyzeContext(ctx context.Context, workers int) []*MFT {
	type site struct {
		cs   pcode.CallSite
		name string
		args []deliveryArgSpec
	}
	var sites []site
	for _, cs := range e.prog.CallSites() {
		op := cs.Op()
		if op.Call == nil {
			continue
		}
		if args, ok := deliveryArgs[op.Call.Name]; ok {
			sites = append(sites, site{cs: cs, name: op.Call.Name, args: args})
		}
	}
	e.sitesC.Add(int64(len(sites)))
	slots := make([][]*MFT, len(sites))
	parallel.ForEach(ctx, workers, len(sites), func(i int) {
		sp := obs.StartChild(ctx, "taint-site")
		sp.AddString("deliver", sites[i].name)
		sp.AddString("fn", sites[i].cs.Fn.Name())
		slots[i] = e.traceDelivery(sites[i].cs, sites[i].name, sites[i].args)
		sp.AddInt("mfts", len(slots[i]))
		sp.End()
		e.mftsC.Add(int64(len(slots[i])))
	})
	var out []*MFT
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

type deliveryArgSpec = struct {
	Index int
	Label string
}

// traceDelivery builds the MFT(s) for one delivery callsite.
func (e *Engine) traceDelivery(cs pcode.CallSite, deliver string, args []deliveryArgSpec) []*MFT {
	// Fork per caller when the primary message argument is a pass-through
	// parameter of a wrapper function: each caller is a distinct message.
	primary := args[len(args)-1]
	pv := pcode.Register(isa.ArgReg(primary.Index))
	du := e.du(cs.Fn)
	if primary.Index < cs.Fn.Sym.NumParams && du.IsParamLive(cs.OpIdx, pv) {
		var out []*MFT
		for _, edge := range e.callers(cs.Fn) {
			ctx := &traceCtx{fn: edge.Site.Fn, callIdx: edge.Site.OpIdx}
			m := e.buildMFT(cs, deliver, args, ctx)
			m.Context = edge.Site.Fn.Name()
			out = append(out, m)
		}
		if len(out) > 0 {
			return out
		}
	}
	return []*MFT{e.buildMFT(cs, deliver, args, nil)}
}

func (e *Engine) buildMFT(cs pcode.CallSite, deliver string, args []deliveryArgSpec, ctx *traceCtx) *MFT {
	st := &traceState{
		visited: make(map[traceKey]bool),
		budget:  e.opts.MaxNodes,
	}
	defer func() {
		spent := int64(e.opts.MaxNodes - st.budget)
		e.stepsC.Add(spent)
		e.stepsH.Observe(spent)
		e.frontierH.Observe(int64(st.maxVisited))
		if st.budget <= 0 {
			e.exhaustedC.Inc()
		}
	}()
	root := &Node{Kind: NodeRoot, Fn: cs.Fn, OpIdx: cs.OpIdx, Callee: deliver}
	// Children in reverse-concatenation order: the tree records the backward
	// walk; mft.Invert recovers message order (paper Fig. 5).
	for i := len(args) - 1; i >= 0; i-- {
		spec := args[i]
		if spec.Index >= len(cs.Fn.Ops[cs.OpIdx].Inputs) {
			continue
		}
		argNode := &Node{Kind: NodeArg, Fn: cs.Fn, OpIdx: cs.OpIdx, ArgLabel: spec.Label}
		v := pcode.Register(isa.ArgReg(spec.Index))
		argNode.Children = e.trace(st, cs.Fn, cs.OpIdx, v, ctx, 0)
		root.Children = append(root.Children, argNode)
	}
	return &MFT{Prog: e.prog, Facts: e.fx, Site: cs, Deliver: deliver, Root: root}
}

// traceCtx links a callee analysis back to the callsite it descended from.
type traceCtx struct {
	parent  *traceCtx
	fn      *pcode.Function
	callIdx int
}

func (c *traceCtx) depth() int {
	n := 0
	for ; c != nil; c = c.parent {
		n++
	}
	return n
}

type traceKey struct {
	fnAddr   uint32
	useIdx   int
	space    pcode.Space
	offset   uint64
	ctxDepth int
}

type traceState struct {
	visited    map[traceKey]bool
	budget     int
	maxVisited int // high-water mark of the visited frontier
}

func (st *traceState) spend() bool {
	if st.budget <= 0 {
		return false
	}
	st.budget--
	return true
}

// trace resolves the value of v as used at useIdx in fn, returning the MFT
// subtrees of its origins.
func (e *Engine) trace(st *traceState, fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx, depth int) []*Node {
	if depth > e.opts.MaxDepth || !st.spend() {
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: useIdx}}
	}
	if v.IsConst() {
		return []*Node{e.constLeaf(st, fn, useIdx, v.Offset, ctx, depth)}
	}
	key := traceKey{fn.Addr(), useIdx, v.Space, v.Offset, ctx.depth()}
	if st.visited[key] {
		return nil
	}
	st.visited[key] = true
	if len(st.visited) > st.maxVisited {
		st.maxVisited = len(st.visited)
	}
	defer delete(st.visited, key)

	du := e.du(fn)
	defs := du.ReachingDefs(useIdx, v)
	if len(defs) == 0 {
		return e.traceEntryValue(st, fn, useIdx, v, ctx, depth)
	}
	var out []*Node
	for _, def := range defs {
		out = append(out, e.traceDef(st, fn, useIdx, def, ctx, depth)...)
	}
	return out
}

// traceEntryValue handles a varnode with no reaching definition: a function
// parameter (cross to callers, §IV-B) or an untracked location.
func (e *Engine) traceEntryValue(st *traceState, fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx, depth int) []*Node {
	r, ok := v.Reg()
	if !ok || int(r-isa.R1) >= fn.Sym.NumParams || r < isa.R1 {
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: useIdx}}
	}
	if ctx != nil {
		// We know which callsite we descended from: resolve the argument
		// value there.
		n := &Node{Kind: NodeParam, Fn: fn, OpIdx: useIdx, Callee: fn.Name()}
		n.Children = e.trace(st, ctx.fn, ctx.callIdx, v, ctx.parent, depth+1)
		return []*Node{n}
	}
	// Unknown provenance: analyze all possible callsites of the caller.
	callers := e.callers(fn)
	if len(callers) == 0 {
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: useIdx}}
	}
	var out []*Node
	for _, edge := range callers {
		n := &Node{Kind: NodeParam, Fn: fn, OpIdx: useIdx, Callee: fn.Name()}
		n.Children = e.trace(st, edge.Site.Fn, edge.Site.OpIdx, v, nil, depth+1)
		out = append(out, n)
	}
	return out
}

// traceDef expands the definition of a traced value at op index def.
func (e *Engine) traceDef(st *traceState, fn *pcode.Function, useIdx, def int, ctx *traceCtx, depth int) []*Node {
	op := &fn.Ops[def]
	switch op.Code {
	case pcode.COPY:
		in0 := op.Inputs[0]
		if in0.IsConst() {
			return []*Node{e.constLeaf(st, fn, useIdx, in0.Offset, ctx, depth)}
		}
		return e.trace(st, fn, def, in0, ctx, depth+1)

	case pcode.LOAD:
		du := e.du(fn)
		if slot, ok := du.Slot(def); ok {
			return e.trace(st, fn, def, slot, ctx, depth+1)
		}
		// Pointer-based load: over-taint through the base pointer.
		if base, ok := loadBase(fn, def); ok {
			return e.trace(st, fn, def, base, ctx, depth+1)
		}
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: def}}

	case pcode.CALL:
		return e.traceCall(st, fn, useIdx, def, ctx, depth)

	case pcode.CALLIND:
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: def}}

	default:
		return e.traceOp(st, fn, def, op, ctx, depth)
	}
}

// traceOp expands an arithmetic/logic definition.
func (e *Engine) traceOp(st *traceState, fn *pcode.Function, def int, op *pcode.Op, ctx *traceCtx, depth int) []*Node {
	var nonConst []pcode.Varnode
	for _, in := range op.Inputs {
		if !in.IsConst() {
			nonConst = append(nonConst, in)
		}
	}
	switch len(nonConst) {
	case 0:
		val := uint64(0)
		if len(op.Inputs) > 0 {
			val = op.Inputs[0].Offset
		}
		return []*Node{e.constLeaf(st, fn, def, val, ctx, depth)}
	case 1:
		if op.Code == pcode.INT_ADD || op.Code == pcode.INT_SUB {
			// Pointer arithmetic: transparent.
			return e.trace(st, fn, def, nonConst[0], ctx, depth+1)
		}
	}
	n := &Node{Kind: NodeOp, Fn: fn, OpIdx: def, Callee: op.Code.String()}
	// Reverse order: backward-walk convention.
	for i := len(nonConst) - 1; i >= 0; i-- {
		n.Children = append(n.Children, e.trace(st, fn, def, nonConst[i], ctx, depth+1)...)
	}
	return []*Node{n}
}

// traceCall expands a value defined by a call's return.
func (e *Engine) traceCall(st *traceState, fn *pcode.Function, useIdx, def int, ctx *traceCtx, depth int) []*Node {
	op := &fn.Ops[def]
	name := op.Call.Name

	if jsonPrintFns[name] {
		objOrigins := e.originsOf(fn, def, pcode.Register(isa.R1), ctx)
		n := &Node{Kind: NodeJSON, Fn: fn, OpIdx: def, Callee: name}
		n.Children = e.jsonContent(st, fn, def, objOrigins, ctx, depth+1)
		return []*Node{n}
	}

	if ws, ok := writeSummaries[name]; ok {
		// Return value is the destination buffer: its content is the
		// accumulated writes, ending with this call (the backward scan
		// starting just past def rediscovers the call as the last writer).
		nodes := e.bufferContent(st, fn, def+1, e.dstOrigins(fn, def, ws, ctx), ctx, depth+1)
		if len(nodes) == 0 {
			return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: def, Callee: name}}
		}
		return nodes
	}

	if rs, ok := returnSummaries[name]; ok {
		switch rs.source {
		case srcAlloc:
			// Fresh allocation: the value's content is what was written into
			// it after allocation. The use point may have shrunk while
			// walking copy chains, so scan the whole containing function —
			// over-taint, per the paper's strategy (allocations back exactly
			// one message in practice).
			origins := []origin{{kind: orgAlloc, fnAddr: fn.Addr(), opIdx: def}}
			scanEnd := len(fn.Ops)
			if name == "cJSON_CreateObject" {
				n := &Node{Kind: NodeJSON, Fn: fn, OpIdx: def, Callee: name}
				n.Children = e.jsonContent(st, fn, scanEnd, origins, ctx, depth+1)
				return []*Node{n}
			}
			n := &Node{Kind: NodeOp, Fn: fn, OpIdx: def, Callee: name}
			n.Children = e.bufferContent(st, fn, scanEnd, origins, ctx, depth+1)
			return []*Node{n}
		case srcNone:
			n := &Node{Kind: NodeCall, Fn: fn, OpIdx: def, Callee: name}
			for i := len(rs.deps) - 1; i >= 0; i-- {
				arg := pcode.Register(isa.ArgReg(rs.deps[i]))
				n.Children = append(n.Children, e.trace(st, fn, def, arg, ctx, depth+1)...)
			}
			return []*Node{n}
		default:
			return []*Node{{
				Kind: leafKindOf(rs.source), Fn: fn, OpIdx: def,
				Callee: name, Key: e.argString(fn, def, rs.keyArg),
			}}
		}
	}

	if op.Call.Kind == pcode.CallLocal {
		callee, ok := e.prog.FuncAt(op.Call.Addr)
		if !ok {
			return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: def}}
		}
		n := &Node{Kind: NodeReturn, Fn: fn, OpIdx: def, Callee: callee.Name()}
		sub := &traceCtx{parent: ctx, fn: fn, callIdx: def}
		for i := range callee.Ops {
			if callee.Ops[i].Code == pcode.RETURN && len(callee.Ops[i].Inputs) > 0 {
				n.Children = append(n.Children,
					e.trace(st, callee, i, callee.Ops[i].Inputs[0], sub, depth+1)...)
			}
		}
		return []*Node{n}
	}

	// Unsummarized import: over-taint through the arguments.
	n := &Node{Kind: NodeCall, Fn: fn, OpIdx: def, Callee: name}
	for i := op.Call.Arity - 1; i >= 0; i-- {
		arg := pcode.Register(isa.ArgReg(i))
		n.Children = append(n.Children, e.trace(st, fn, def, arg, ctx, depth+1)...)
	}
	if len(n.Children) == 0 {
		return []*Node{{Kind: LeafUnknown, Fn: fn, OpIdx: def, Callee: name}}
	}
	return []*Node{n}
}

// constLeaf classifies a constant: a rodata string, a writable data buffer
// (whose content is the accumulated writes before useIdx), or a plain
// number.
func (e *Engine) constLeaf(st *traceState, fn *pcode.Function, useIdx int, val uint64, ctx *traceCtx, depth int) *Node {
	bin := e.prog.Bin
	addr := uint32(val)
	if bin.InData(addr) {
		if sym, ok := bin.DataSymAt(addr); ok && sym.Kind == binfmt.DataString {
			if s, ok := bin.StringAt(addr); ok {
				return &Node{Kind: LeafString, Fn: fn, OpIdx: useIdx, StrVal: s}
			}
		}
		// Writable buffer: resolve its content at the use point.
		origins := []origin{{kind: orgConst, constVal: val}}
		n := &Node{Kind: NodeOp, Fn: fn, OpIdx: useIdx, Callee: "buffer"}
		if depth <= e.opts.MaxDepth {
			n.Children = e.bufferContent(st, fn, useIdx, origins, ctx, depth+1)
		}
		if len(n.Children) == 0 {
			return &Node{Kind: LeafUnknown, Fn: fn, OpIdx: useIdx}
		}
		return n
	}
	return &Node{Kind: LeafNumeric, Fn: fn, OpIdx: useIdx, ConstVal: val}
}

// argString resolves the constant string argument of a call, if the
// argument index is valid and the value folds to a rodata string. The
// constant-propagation solution proves values laundered through arbitrary
// copy chains and spills; the single-hop reaching-definition scan remains
// as a fallback for merge points the pessimistic solver gives up on when
// all incoming definitions agree on the same rodata string.
func (e *Engine) argString(fn *pcode.Function, callIdx, argIdx int) string {
	if argIdx < 0 || argIdx >= isa.NumArgRegs {
		return ""
	}
	v := pcode.Register(isa.ArgReg(argIdx))
	if addr, ok := e.consts(fn).ValueAt(callIdx, v); ok {
		if sym, found := e.prog.Bin.DataSymAt(uint32(addr)); found && sym.Kind == binfmt.DataString {
			if s, isStr := e.prog.Bin.StringAt(uint32(addr)); isStr {
				return s
			}
		}
	}
	du := e.du(fn)
	defs := du.ReachingDefs(callIdx, v)
	for _, def := range defs {
		op := &fn.Ops[def]
		if op.Code == pcode.COPY && len(op.Inputs) == 1 && op.Inputs[0].IsConst() {
			if s, ok := e.prog.Bin.StringAt(uint32(op.Inputs[0].Offset)); ok {
				return s
			}
		}
	}
	return ""
}

func loadBase(fn *pcode.Function, loadIdx int) (pcode.Varnode, bool) {
	if loadIdx == 0 {
		return pcode.Varnode{}, false
	}
	ea := &fn.Ops[loadIdx-1]
	if !ea.HasOut || len(fn.Ops[loadIdx].Inputs) == 0 ||
		ea.Output != fn.Ops[loadIdx].Inputs[0] || ea.Code != pcode.INT_ADD {
		return pcode.Varnode{}, false
	}
	return ea.Inputs[0], true
}
