package taint

import (
	"strconv"

	"firmres/internal/externs"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// origin identifies a buffer/object identity for content tracking: message
// buffers are written through library calls (sprintf/strcat/cJSON_Add...)
// rather than SSA definitions, so the engine needs to recognize "the same
// buffer" across instructions and across call boundaries.
type originKind uint8

const (
	orgConst originKind = iota + 1 // a fixed data-segment address (global buffer)
	orgAlloc                       // a fresh allocation (malloc/cJSON_CreateObject)
	orgParam                       // an incoming parameter of a specific function
	orgOp                          // an unclassified definition site
)

type origin struct {
	constVal uint64 // orgConst
	opIdx    int    // orgAlloc/orgOp
	param    int    // orgParam: parameter index
	fnAddr   uint32 // orgAlloc/orgParam/orgOp
	kind     originKind
}

// originBuf is the stack storage a caller passes appendOrigins: the
// corpus's pointer queries resolve to a handful of origins, and a query
// that finds more spills to the heap.
type originBuf [4]origin

func originsIntersect(a, b []origin) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// appendOrigins appends the identities of the pointer value v as used at
// useIdx to dst and returns the extended slice, as
// dataflow.DefUse.AppendReachingDefs appends definitions: a caller that
// passes a stack buffer (originBuf) makes the query allocate nothing.
func (e *Engine) appendOrigins(dst []origin, fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx) []origin {
	return e.appendOriginsDepth(dst, fn, useIdx, v, ctx, 0)
}

func (e *Engine) appendOriginsDepth(dst []origin, fn *pcode.Function, useIdx int, v pcode.Varnode, ctx *traceCtx, depth int) []origin {
	if depth > 24 {
		return dst
	}
	if v.IsConst() {
		return append(dst, origin{kind: orgConst, constVal: v.Offset})
	}
	du := e.du(fn)
	var buf [4]int
	defs := du.AppendReachingDefs(buf[:0], useIdx, v)
	if len(defs) == 0 {
		if r, ok := v.Reg(); ok && r >= isa.R1 && int(r-isa.R1) < fn.Sym.NumParams {
			if ctx != nil {
				return e.appendOriginsDepth(dst, ctx.fn, ctx.callIdx, v, ctx.parent, depth+1)
			}
			return append(dst, origin{kind: orgParam, fnAddr: fn.Addr(), param: int(r - isa.R1)})
		}
		return dst
	}
	for _, def := range defs {
		op := &fn.Ops[def]
		switch op.Code {
		case pcode.COPY:
			if op.Inputs[0].IsConst() {
				dst = append(dst, origin{kind: orgConst, constVal: op.Inputs[0].Offset})
			} else {
				dst = e.appendOriginsDepth(dst, fn, def, op.Inputs[0], ctx, depth+1)
			}
		case pcode.INT_ADD, pcode.INT_SUB:
			// Pointer arithmetic preserves identity through the base.
			var base *pcode.Varnode
			for i := range op.Inputs {
				if !op.Inputs[i].IsConst() {
					if base != nil {
						base = nil
						break
					}
					base = &op.Inputs[i]
				}
			}
			if base != nil {
				dst = e.appendOriginsDepth(dst, fn, def, *base, ctx, depth+1)
			} else {
				dst = append(dst, origin{kind: orgOp, fnAddr: fn.Addr(), opIdx: def})
			}
		case pcode.LOAD:
			if slot, ok := du.Slot(def); ok {
				dst = e.appendOriginsDepth(dst, fn, def, slot, ctx, depth+1)
			} else {
				dst = append(dst, origin{kind: orgOp, fnAddr: fn.Addr(), opIdx: def})
			}
		case pcode.CALL:
			switch sig := op.Call.Sig; {
			case sig != nil && sig.Return != nil && sig.Return.Source == externs.SrcAlloc:
				dst = append(dst, origin{kind: orgAlloc, fnAddr: fn.Addr(), opIdx: def})
			case sig != nil && sig.Write != nil:
				// strcpy/strcat-family return their destination.
				dst = e.appendOriginsDepth(dst, fn, def, pcode.Register(isa.ArgReg(sig.Write.Dst)), ctx, depth+1)
			default:
				dst = append(dst, origin{kind: orgOp, fnAddr: fn.Addr(), opIdx: def})
			}
		default:
			dst = append(dst, origin{kind: orgOp, fnAddr: fn.Addr(), opIdx: def})
		}
	}
	return dst
}

// bufferContent reconstructs the content written into the target buffer
// before op index fromIdx, scanning backwards, and pushes it in reverse
// write order (backward-walk convention; inverted later).
//
// The scan follows three channels: write-summary library calls whose
// destination matches, raw STOREs through the buffer (the disassembly-noise
// channel behind the paper's field false positives), and local callees that
// received the buffer (directly or as a global).
func (t *tracer) bufferContent(fn *pcode.Function, fromIdx int, targets []origin, ctx *traceCtx, depth int) {
	t.bufferContentScan(fn, fromIdx, targets, ctx, depth)
}

// bufferContentScan is bufferContent, reporting whether the scan stopped
// at a writer that overwrote the buffer.
func (t *tracer) bufferContentScan(fn *pcode.Function, fromIdx int, targets []origin, ctx *traceCtx, depth int) bool {
	e := t.e
	if depth > e.opts.MaxDepth || len(targets) == 0 {
		return false
	}
	if fromIdx > len(fn.Ops) {
		fromIdx = len(fn.Ops)
	}
	var obuf, tbuf originBuf
	for i := fromIdx - 1; i >= 0; i-- {
		op := &fn.Ops[i]
		switch op.Code {
		case pcode.STORE:
			if e.opts.NoStoreChannel {
				continue
			}
			base, ok := storeBase(fn, i)
			if !ok {
				continue
			}
			if !originsIntersect(e.appendOrigins(obuf[:0], fn, i, base, ctx), targets) {
				continue
			}
			mark := len(t.stack)
			t.trace(fn, i, op.Inputs[1], ctx, depth+1)
			t.wrap(mark, Node{Kind: NodeOp, Fn: fn, OpIdx: i, Callee: "STORE"})

		case pcode.CALL:
			if sig := op.Call.Sig; sig != nil && sig.Write != nil {
				dst := pcode.Register(isa.ArgReg(sig.Write.Dst))
				if !originsIntersect(e.appendOrigins(obuf[:0], fn, i, dst, ctx), targets) {
					continue
				}
				format := e.argString(fn, i, sig.Format.Index())
				mark := len(t.stack)
				t.writerDeps(fn, i, op, sig, ctx, depth)
				t.wrap(mark, Node{Kind: NodeCall, Fn: fn, OpIdx: i, Callee: sig.Name, Format: format})
				if !sig.Write.Append {
					return true
				}
				continue
			}
			if op.Call.Kind != pcode.CallLocal {
				continue
			}
			callee, ok := e.prog.FuncAt(op.Call.Addr)
			if !ok {
				continue
			}
			calleeTargets := e.appendCalleeTargets(tbuf[:0], fn, i, op, targets, ctx, callee)
			if len(calleeTargets) == 0 {
				continue
			}
			sub := &traceCtx{parent: ctx, fn: fn, callIdx: i}
			mark := len(t.stack)
			overwrote := t.bufferContentScan(callee, len(callee.Ops), calleeTargets, sub, depth+1)
			if len(t.stack) > mark {
				t.wrap(mark, Node{Kind: NodeReturn, Fn: fn, OpIdx: i, Callee: callee.Name()})
			}
			if overwrote {
				return true
			}
		}
	}
	return false
}

// argLabels are the labels of writer arguments, by argument index.
var argLabels = func() (l [isa.NumArgRegs]string) {
	for i := range l {
		l[i] = "arg" + strconv.Itoa(i)
	}
	return l
}()

// writerDeps traces the content dependencies of a write-summary call, in
// reverse argument order: its Write.Deps, then a printf-style writer's
// format and the arguments after it. Each argument's subtree is wrapped in
// a NodeArg labelled "arg<N>" so downstream stages can associate a traced
// value with its position in the call (format-verb matching for sprintf
// separation).
func (t *tracer) writerDeps(fn *pcode.Function, callIdx int, op *pcode.Op, sig *externs.Sig, ctx *traceCtx, depth int) {
	var buf [isa.NumArgRegs]int
	idxs := append(buf[:0], sig.Write.Deps...)
	if format := sig.Format.Index(); format >= 0 {
		for j := format; j < op.Call.Arity; j++ {
			idxs = append(idxs, j)
		}
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		mark := len(t.stack)
		t.trace(fn, callIdx, pcode.Register(isa.ArgReg(idxs[i])), ctx, depth+1)
		t.wrap(mark, Node{Kind: NodeArg, Fn: fn, OpIdx: callIdx, ArgLabel: argLabels[idxs[i]]})
	}
}

// appendCalleeTargets translates buffer identities across a call
// boundary, appending them to dst: constant (global) targets pass through
// unchanged; targets matching an argument become parameter origins inside
// the callee.
func (e *Engine) appendCalleeTargets(dst []origin, fn *pcode.Function, callIdx int, op *pcode.Op, targets []origin, ctx *traceCtx, callee *pcode.Function) []origin {
	for _, t := range targets {
		if t.kind == orgConst {
			dst = append(dst, t)
		}
	}
	var obuf originBuf
	for argIdx := 0; argIdx < op.Call.Arity && argIdx < callee.Sym.NumParams; argIdx++ {
		argOrigins := e.appendOrigins(obuf[:0], fn, callIdx, pcode.Register(isa.ArgReg(argIdx)), ctx)
		if originsIntersect(argOrigins, targets) {
			dst = append(dst, origin{kind: orgParam, fnAddr: callee.Addr(), param: argIdx})
		}
	}
	return dst
}

// jsonContent reconstructs the key/value additions made to a cJSON object
// before op index fromIdx and pushes them in reverse addition order.
func (t *tracer) jsonContent(fn *pcode.Function, fromIdx int, targets []origin, ctx *traceCtx, depth int) {
	e := t.e
	if depth > e.opts.MaxDepth || len(targets) == 0 {
		return
	}
	if fromIdx > len(fn.Ops) {
		fromIdx = len(fn.Ops)
	}
	var obuf, tbuf originBuf
	for i := fromIdx - 1; i >= 0; i-- {
		op := &fn.Ops[i]
		if op.Code != pcode.CALL {
			continue
		}
		if sig := op.Call.Sig; sig != nil && (sig.JSON == externs.JSONAdd || sig.JSON == externs.JSONAddItem) {
			// (object, key, value)
			obj := pcode.Register(isa.ArgReg(0))
			if !originsIntersect(e.appendOrigins(obuf[:0], fn, i, obj, ctx), targets) {
				continue
			}
			key := e.argString(fn, i, 1)
			valArg := pcode.Register(isa.ArgReg(2))
			mark := len(t.stack)
			if sig.JSON == externs.JSONAddItem {
				itemOrigins := e.appendOrigins(tbuf[:0], fn, i, valArg, ctx)
				t.jsonContent(fn, i, itemOrigins, ctx, depth+1)
				t.wrap(mark, Node{Kind: NodeJSON, Fn: fn, OpIdx: i, Callee: sig.Name})
			} else {
				t.trace(fn, i, valArg, ctx, depth+1)
			}
			t.wrap(mark, Node{Kind: NodeCall, Fn: fn, OpIdx: i, Callee: sig.Name, Key: key})
			continue
		}
		if op.Call.Kind == pcode.CallLocal {
			callee, ok := e.prog.FuncAt(op.Call.Addr)
			if !ok {
				continue
			}
			calleeTargets := e.appendCalleeTargets(tbuf[:0], fn, i, op, targets, ctx, callee)
			if len(calleeTargets) == 0 {
				continue
			}
			sub := &traceCtx{parent: ctx, fn: fn, callIdx: i}
			mark := len(t.stack)
			t.jsonContent(callee, len(callee.Ops), calleeTargets, sub, depth+1)
			if len(t.stack) > mark {
				t.wrap(mark, Node{Kind: NodeReturn, Fn: fn, OpIdx: i, Callee: callee.Name()})
			}
		}
	}
}

// storeBase recovers the base pointer of a STORE's effective address.
func storeBase(fn *pcode.Function, storeIdx int) (pcode.Varnode, bool) {
	if storeIdx == 0 {
		return pcode.Varnode{}, false
	}
	ea := &fn.Ops[storeIdx-1]
	op := &fn.Ops[storeIdx]
	if !ea.HasOut || len(op.Inputs) == 0 || ea.Output != op.Inputs[0] || ea.Code != pcode.INT_ADD {
		return pcode.Varnode{}, false
	}
	// Base is the non-const input.
	if ea.Inputs[0].IsConst() {
		return ea.Inputs[1], true
	}
	return ea.Inputs[0], true
}
