package taint

import (
	"context"

	"firmres/internal/binfmt"
	"firmres/internal/callgraph"
	"firmres/internal/constprop"
	"firmres/internal/dataflow"
	"firmres/internal/externs"
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

// AnalyzeContext builds one MFT per device-cloud message construction:
// every delivery callsite, forked per caller when the message buffer
// arrives through a wrapper parameter. It traces delivery callsites on up
// to workers goroutines (workers <= 0 selects GOMAXPROCS). Results are
// collected into per-callsite slots and flattened in program order, so the
// MFT sequence is identical at any worker count. A cancelled ctx stops
// claiming new callsites; a panic while tracing is re-raised on the calling
// goroutine, preserving the stage-recovery semantics of a sequential run.
//
// The MFTs, their nodes and the returned list are carved from the trees
// the store keeps in its taint slot, so they live as long as the store's
// set: nothing may read them once the set is released.
func (e *Engine) AnalyzeContext(ctx context.Context, workers int) []*MFT {
	st := treesOf(e.fx)
	n := 0
	for _, fn := range e.prog.Funcs {
		for i := range fn.Ops {
			if deliverySig(&fn.Ops[i]) != nil {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	sites := st.sites.Take(n)
	k := 0
	for _, fn := range e.prog.Funcs {
		for i := range fn.Ops {
			if sig := deliverySig(&fn.Ops[i]); sig != nil {
				sites[k] = site{cs: pcode.CallSite{Fn: fn, OpIdx: i}, sig: sig}
				k++
			}
		}
	}
	e.sitesC.Add(int64(len(sites)))
	parallel.ForEach(ctx, workers, len(sites), func(i int) {
		s := &sites[i]
		sp := obs.StartChild(ctx, "taint-site")
		sp.AddString("deliver", s.sig.Name)
		sp.AddString("fn", s.cs.Fn.Name())
		s.mfts = e.traceDelivery(st, s.cs, s.sig)
		sp.AddInt("mfts", len(s.mfts))
		sp.End()
		e.mftsC.Add(int64(len(s.mfts)))
	})
	total := 0
	for i := range sites {
		total += len(sites[i].mfts)
	}
	if total == 0 {
		return nil
	}
	out := st.lists.Take(total)[:0]
	for i := range sites {
		out = append(out, sites[i].mfts...)
	}
	return out
}

// deliverySig returns the extern row of op's callee when op calls a
// function whose arguments carry a message to the cloud, nil otherwise.
func deliverySig(op *pcode.Op) *externs.Sig {
	if op.Call == nil || op.Call.Sig == nil || len(op.Call.Sig.Deliver) == 0 {
		return nil
	}
	return op.Call.Sig
}

// site is one delivery callsite and the MFTs traced from it.
type site struct {
	cs   pcode.CallSite
	sig  *externs.Sig
	mfts []*MFT
}

// traceDelivery builds the MFT(s) for one delivery callsite, on a tracer
// of st.
func (e *Engine) traceDelivery(st *trees, cs pcode.CallSite, sig *externs.Sig) []*MFT {
	t := st.tracer(e)
	defer st.done(t)
	// Fork per caller when the primary message argument is a pass-through
	// parameter of a wrapper function: each caller is a distinct message.
	primary := sig.Deliver[len(sig.Deliver)-1]
	pv := pcode.Register(isa.ArgReg(primary.Index))
	du := e.du(cs.Fn)
	if primary.Index < cs.Fn.Sym.NumParams && du.IsParamLive(cs.OpIdx, pv) {
		if callers := e.callers(cs.Fn); len(callers) > 0 {
			out := st.lists.Take(len(callers))
			for i, edge := range callers {
				ctx := &traceCtx{fn: edge.Site.Fn, callIdx: edge.Site.OpIdx}
				out[i] = t.buildMFT(cs, sig, ctx)
				out[i].Context = edge.Site.Fn.Name()
			}
			return out
		}
	}
	out := st.lists.Take(1)
	out[0] = t.buildMFT(cs, sig, nil)
	return out
}

// tracer traces the MFTs of one delivery site. Every trace step pushes
// the nodes it resolves a value to onto the tracer's stack, and a node
// that has children takes them off it into a child list of its own, so a
// tree is built in the storage it keeps: nodes and child lists come from
// runs the tracer claims from its trees.
type tracer struct {
	e     *Engine
	store *trees

	visited    map[traceKey]bool
	budget     int
	maxVisited int // high-water mark of the visited frontier

	stack []*Node // traced nodes not yet handed to their parent

	nodes           []Node  // the run of nodes not yet handed out
	kids            []*Node // the run of child-list slots not yet handed out
	nodeRun, kidRun int     // the size of the next run
}

// add carves n as a node of the tree and pushes it.
func (t *tracer) add(n Node) *Node {
	if len(t.nodes) == 0 {
		t.nodes = t.store.nodes.Claim(t.nodes, 1, t.nodeRun)
		t.nodeRun = min(2*t.nodeRun, maxRun)
	}
	p := &t.nodes[0]
	t.nodes = t.nodes[1:]
	*p = n
	t.stack = append(t.stack, p)
	return p
}

// wrap makes n the parent of every node pushed since mark and pushes it
// in their place.
func (t *tracer) wrap(mark int, n Node) {
	n.Children = t.children(mark)
	t.add(n)
}

// children pops the nodes pushed since mark into a child list, nil when
// there are none.
func (t *tracer) children(mark int) []*Node {
	n := len(t.stack) - mark
	if n == 0 {
		return nil
	}
	if len(t.kids) < n {
		t.kids = t.store.kids.Claim(t.kids, n, t.kidRun)
		t.kidRun = min(2*t.kidRun, maxRun)
	}
	out := t.kids[:n:n]
	t.kids = t.kids[n:]
	copy(out, t.stack[mark:])
	t.stack = t.stack[:mark]
	return out
}

// unknown pushes the over-taint fallback leaf.
func (t *tracer) unknown(fn *pcode.Function, opIdx int) {
	t.add(Node{Kind: LeafUnknown, Fn: fn, OpIdx: opIdx})
}

func (t *tracer) buildMFT(cs pcode.CallSite, sig *externs.Sig, ctx *traceCtx) *MFT {
	e := t.e
	t.budget, t.maxVisited = e.opts.MaxNodes, 0
	defer func() {
		spent := int64(e.opts.MaxNodes - t.budget)
		e.stepsC.Add(spent)
		e.stepsH.Observe(spent)
		e.frontierH.Observe(int64(t.maxVisited))
		if t.budget <= 0 {
			e.exhaustedC.Inc()
		}
	}()
	mark := len(t.stack)
	// Children in reverse-concatenation order: the tree records the backward
	// walk; mft.Invert recovers message order (paper Fig. 5).
	for i := len(sig.Deliver) - 1; i >= 0; i-- {
		spec := sig.Deliver[i]
		if spec.Index >= len(cs.Fn.Ops[cs.OpIdx].Inputs) {
			continue
		}
		arg := len(t.stack)
		t.trace(cs.Fn, cs.OpIdx, pcode.Register(isa.ArgReg(spec.Index)), ctx, 0)
		t.wrap(arg, Node{Kind: NodeArg, Fn: cs.Fn, OpIdx: cs.OpIdx, ArgLabel: spec.Label})
	}
	t.wrap(mark, Node{Kind: NodeRoot, Fn: cs.Fn, OpIdx: cs.OpIdx, Callee: sig.Name})
	m := &t.store.mfts.Take(1)[0]
	*m = MFT{Prog: e.prog, Facts: e.fx, Site: cs, Deliver: sig.Name, Root: t.stack[mark]}
	t.stack = t.stack[:mark]
	return m
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

func (t *tracer) spend() bool {
	if t.budget <= 0 {
		return false
	}
	t.budget--
	return true
}

// trace resolves the value of v as used at useIdx in fn, pushing the MFT
// subtrees of its origins.
func (t *tracer) trace(fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx, depth int) {
	e := t.e
	if depth > e.opts.MaxDepth || !t.spend() {
		t.unknown(fn, useIdx)
		return
	}
	if v.IsConst() {
		t.constLeaf(fn, useIdx, v.Offset, ctx, depth)
		return
	}
	key := traceKey{fn.Addr(), useIdx, v.Space, v.Offset, ctx.depth()}
	if t.visited[key] {
		return
	}
	t.visited[key] = true
	if len(t.visited) > t.maxVisited {
		t.maxVisited = len(t.visited)
	}
	defer delete(t.visited, key)

	var buf [4]int
	defs := e.du(fn).AppendReachingDefs(buf[:0], useIdx, v)
	if len(defs) == 0 {
		t.traceEntryValue(fn, useIdx, v, ctx, depth)
		return
	}
	for _, def := range defs {
		t.traceDef(fn, useIdx, def, ctx, depth)
	}
}

// traceEntryValue handles a varnode with no reaching definition: a function
// parameter (cross to callers, §IV-B) or an untracked location.
func (t *tracer) traceEntryValue(fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx, depth int) {
	r, ok := v.Reg()
	if !ok || int(r-isa.R1) >= fn.Sym.NumParams || r < isa.R1 {
		t.unknown(fn, useIdx)
		return
	}
	if ctx != nil {
		// We know which callsite we descended from: resolve the argument
		// value there.
		mark := len(t.stack)
		t.trace(ctx.fn, ctx.callIdx, v, ctx.parent, depth+1)
		t.wrap(mark, Node{Kind: NodeParam, Fn: fn, OpIdx: useIdx, Callee: fn.Name()})
		return
	}
	// Unknown provenance: analyze all possible callsites of the caller.
	callers := t.e.callers(fn)
	if len(callers) == 0 {
		t.unknown(fn, useIdx)
		return
	}
	for _, edge := range callers {
		mark := len(t.stack)
		t.trace(edge.Site.Fn, edge.Site.OpIdx, v, nil, depth+1)
		t.wrap(mark, Node{Kind: NodeParam, Fn: fn, OpIdx: useIdx, Callee: fn.Name()})
	}
}

// traceDef expands the definition of a traced value at op index def.
func (t *tracer) traceDef(fn *pcode.Function, useIdx, def int, ctx *traceCtx, depth int) {
	op := &fn.Ops[def]
	switch op.Code {
	case pcode.COPY:
		in0 := op.Inputs[0]
		if in0.IsConst() {
			t.constLeaf(fn, useIdx, in0.Offset, ctx, depth)
			return
		}
		t.trace(fn, def, in0, ctx, depth+1)

	case pcode.LOAD:
		if slot, ok := t.e.du(fn).Slot(def); ok {
			t.trace(fn, def, slot, ctx, depth+1)
			return
		}
		// Pointer-based load: over-taint through the base pointer.
		if base, ok := fn.LoadBase(def); ok {
			t.trace(fn, def, base, ctx, depth+1)
			return
		}
		t.unknown(fn, def)

	case pcode.CALL:
		t.traceCall(fn, useIdx, def, ctx, depth)

	case pcode.CALLIND:
		t.unknown(fn, def)

	default:
		t.traceOp(fn, def, op, ctx, depth)
	}
}

// traceOp expands an arithmetic/logic definition.
func (t *tracer) traceOp(fn *pcode.Function, def int, op *pcode.Op, ctx *traceCtx, depth int) {
	var buf [4]pcode.Varnode
	nonConst := buf[:0]
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
		t.constLeaf(fn, def, val, ctx, depth)
		return
	case 1:
		if op.Code == pcode.INT_ADD || op.Code == pcode.INT_SUB {
			// Pointer arithmetic: transparent.
			t.trace(fn, def, nonConst[0], ctx, depth+1)
			return
		}
	}
	mark := len(t.stack)
	// Reverse order: backward-walk convention.
	for i := len(nonConst) - 1; i >= 0; i-- {
		t.trace(fn, def, nonConst[i], ctx, depth+1)
	}
	t.wrap(mark, Node{Kind: NodeOp, Fn: fn, OpIdx: def, Callee: op.Code.String()})
}

// traceCall expands a value defined by a call's return, applying the
// callee's function summary (§IV-B) when its extern row has one.
func (t *tracer) traceCall(fn *pcode.Function, useIdx, def int, ctx *traceCtx, depth int) {
	e := t.e
	op := &fn.Ops[def]
	name, sig := op.Call.Name, op.Call.Sig
	mark := len(t.stack)

	var obuf originBuf
	switch {
	case sig == nil:
		// A local, indirect or unmodelled callee: no summary.
	case sig.JSON == externs.JSONPrint:
		// The rendered text is the object's accumulated key/value additions.
		objOrigins := e.appendOrigins(obuf[:0], fn, def, pcode.Register(isa.R1), ctx)
		t.jsonContent(fn, def, objOrigins, ctx, depth+1)
		t.wrap(mark, Node{Kind: NodeJSON, Fn: fn, OpIdx: def, Callee: name})
		return

	case sig.Write != nil:
		// Return value is the destination buffer: its content is the
		// accumulated writes, ending with this call (the backward scan
		// starting just past def rediscovers the call as the last writer).
		dstOrigins := e.appendOrigins(obuf[:0], fn, def, pcode.Register(isa.ArgReg(sig.Write.Dst)), ctx)
		t.bufferContent(fn, def+1, dstOrigins, ctx, depth+1)
		if len(t.stack) == mark {
			t.add(Node{Kind: LeafUnknown, Fn: fn, OpIdx: def, Callee: name})
		}
		return

	case sig.Return != nil:
		switch rs := sig.Return; rs.Source {
		case externs.SrcAlloc:
			// Fresh allocation: the value's content is what was written into
			// it after allocation. The use point may have shrunk while
			// walking copy chains, so scan the whole containing function —
			// over-taint, per the paper's strategy (allocations back exactly
			// one message in practice).
			origins := []origin{{kind: orgAlloc, fnAddr: fn.Addr(), opIdx: def}}
			scanEnd := len(fn.Ops)
			if sig.JSON == externs.JSONNew {
				t.jsonContent(fn, scanEnd, origins, ctx, depth+1)
				t.wrap(mark, Node{Kind: NodeJSON, Fn: fn, OpIdx: def, Callee: name})
				return
			}
			t.bufferContent(fn, scanEnd, origins, ctx, depth+1)
			t.wrap(mark, Node{Kind: NodeOp, Fn: fn, OpIdx: def, Callee: name})
		case externs.SrcNone:
			for i := len(rs.Deps) - 1; i >= 0; i-- {
				t.trace(fn, def, pcode.Register(isa.ArgReg(rs.Deps[i])), ctx, depth+1)
			}
			t.wrap(mark, Node{Kind: NodeCall, Fn: fn, OpIdx: def, Callee: name})
		default:
			t.add(Node{
				Kind: leafKinds[rs.Source], Fn: fn, OpIdx: def,
				Callee: name, Key: e.argString(fn, def, rs.Key.Index()),
			})
		}
		return
	}

	if op.Call.Kind == pcode.CallLocal {
		callee, ok := e.prog.FuncAt(op.Call.Addr)
		if !ok {
			t.unknown(fn, def)
			return
		}
		sub := &traceCtx{parent: ctx, fn: fn, callIdx: def}
		for i := range callee.Ops {
			if callee.Ops[i].Code == pcode.RETURN && len(callee.Ops[i].Inputs) > 0 {
				t.trace(callee, i, callee.Ops[i].Inputs[0], sub, depth+1)
			}
		}
		t.wrap(mark, Node{Kind: NodeReturn, Fn: fn, OpIdx: def, Callee: callee.Name()})
		return
	}

	// Unsummarized import: over-taint through the arguments.
	for i := op.Call.Arity - 1; i >= 0; i-- {
		t.trace(fn, def, pcode.Register(isa.ArgReg(i)), ctx, depth+1)
	}
	if len(t.stack) == mark {
		t.add(Node{Kind: LeafUnknown, Fn: fn, OpIdx: def, Callee: name})
		return
	}
	t.wrap(mark, Node{Kind: NodeCall, Fn: fn, OpIdx: def, Callee: name})
}

// leafKinds maps the source a summarized return value is to its MFT leaf
// kind.
var leafKinds = [...]NodeKind{
	externs.SrcNVRAM:   LeafNVRAM,
	externs.SrcConfig:  LeafConfig,
	externs.SrcEnv:     LeafEnv,
	externs.SrcFile:    LeafFile,
	externs.SrcDynamic: LeafDynamic,
}

// constLeaf classifies a constant: a rodata string, a writable data buffer
// (whose content is the accumulated writes before useIdx), or a plain
// number.
func (t *tracer) constLeaf(fn *pcode.Function, useIdx int, val uint64, ctx *traceCtx, depth int) {
	e := t.e
	bin := e.prog.Bin
	addr := uint32(val)
	if !bin.InData(addr) {
		t.add(Node{Kind: LeafNumeric, Fn: fn, OpIdx: useIdx, ConstVal: val})
		return
	}
	if sym, ok := bin.DataSymAt(addr); ok && sym.Kind == binfmt.DataString {
		if s, ok := bin.StringAt(addr); ok {
			t.add(Node{Kind: LeafString, Fn: fn, OpIdx: useIdx, StrVal: s})
			return
		}
	}
	// Writable buffer: resolve its content at the use point.
	mark := len(t.stack)
	if depth <= e.opts.MaxDepth {
		origins := []origin{{kind: orgConst, constVal: val}}
		t.bufferContent(fn, useIdx, origins, ctx, depth+1)
	}
	if len(t.stack) == mark {
		t.unknown(fn, useIdx)
		return
	}
	t.wrap(mark, Node{Kind: NodeOp, Fn: fn, OpIdx: useIdx, Callee: "buffer"})
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
	var buf [4]int
	for _, def := range e.du(fn).AppendReachingDefs(buf[:0], callIdx, v) {
		op := &fn.Ops[def]
		if op.Code == pcode.COPY && len(op.Inputs) == 1 && op.Inputs[0].IsConst() {
			if s, ok := e.prog.Bin.StringAt(uint32(op.Inputs[0].Offset)); ok {
				return s
			}
		}
	}
	return ""
}
