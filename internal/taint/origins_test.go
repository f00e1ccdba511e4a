package taint

import (
	"slices"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// TestAppendOriginsKeepsDst: appendOrigins appends a pointer's origins
// after whatever dst holds, and appends the same origins a query into an
// empty slice returns — whether dst has room (a stack buffer) or must
// grow — for every argument of every call, in its own function and, for
// a callee, in the context of each call to it.
func TestAppendOriginsKeepsDst(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	h := a.Func("append_identity", 1, false)
	h.Mov(isa.R9, isa.R1)
	h.LAStr(isa.R1, "device_id")
	h.CallImport("nvram_get", 1)
	h.Mov(isa.R2, isa.R1)
	h.Mov(isa.R1, isa.R9)
	h.CallImport("strcat", 2)
	h.Ret()
	f := a.Func("send_report", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "id=")
	f.CallImport("strcpy", 2)
	f.LA(isa.R1, buf)
	f.Call("append_identity")
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()
	prog := liftProgram(t, a)
	e := NewEngineFacts(facts.New(prog), Options{})

	// Each call of a local function is a context its callee's queries
	// resolve parameters in.
	ctxs := map[*pcode.Function][]*traceCtx{}
	for _, fn := range prog.Funcs {
		for i, op := range fn.Ops {
			if op.Code == pcode.CALL && op.Call.Kind == pcode.CallLocal {
				if callee, ok := prog.FuncAt(op.Call.Addr); ok {
					ctxs[callee] = append(ctxs[callee], &traceCtx{fn: fn, callIdx: i})
				}
			}
		}
	}
	held := origin{kind: orgOp, fnAddr: 1, opIdx: -1}
	queries, resolved := 0, 0
	for _, fn := range prog.Funcs {
		for i, op := range fn.Ops {
			if op.Code != pcode.CALL {
				continue
			}
			for _, ctx := range append([]*traceCtx{nil}, ctxs[fn]...) {
				for r := 0; r < isa.NumArgRegs; r++ {
					v := pcode.Register(isa.ArgReg(r))
					fresh := e.appendOrigins(nil, fn, i, v, ctx)
					var sb originBuf
					for _, dst := range [][]origin{append(sb[:0], held), {held}} {
						got := e.appendOrigins(dst, fn, i, v, ctx)
						if got[0] != held || !slices.Equal(got[1:], fresh) {
							t.Fatalf("%s op %d R%d (ctx %v): appended %v after %v, a fresh query returns %v",
								fn.Name(), i, r+1, ctx != nil, got[1:], got[0], fresh)
						}
					}
					queries++
					if len(fresh) > 0 {
						resolved++
					}
				}
			}
		}
	}
	if resolved == 0 || resolved == queries {
		t.Fatalf("%d of %d queries resolved an origin: the program does not exercise both outcomes", resolved, queries)
	}
}
