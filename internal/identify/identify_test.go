package identify

import (
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// asyncCloudProgram models a device-cloud executable: an event-registered
// handler receives a request, a parsing function tests request fields, and a
// response goes out through SSL_write.
func asyncCloudProgram(t *testing.T) *pcode.Program {
	t.Helper()
	a := asm.New("cloudd")

	// parse_request(buf): predicates dominated by request-derived operands.
	parse := a.Func("parse_request", 1, true)
	parse.NameParam(isa.R1, "buf")
	fail := parse.NewLabel()
	parse.LB(isa.R2, isa.R1, 0) // request byte
	parse.LI(isa.R3, 'G')
	parse.Bne(isa.R2, isa.R3, fail)
	parse.LB(isa.R2, isa.R1, 1)
	parse.LI(isa.R3, 'E')
	parse.Bne(isa.R2, isa.R3, fail)
	parse.LB(isa.R2, isa.R1, 2)
	parse.LI(isa.R3, 'T')
	parse.Bne(isa.R2, isa.R3, fail)
	parse.LI(isa.R1, 1)
	parse.Ret()
	parse.Bind(fail)
	parse.LI(isa.R1, 0)
	parse.Ret()

	// respond(conn): sends the response.
	respond := a.Func("respond", 1, true)
	respond.LAStr(isa.R2, "HTTP/1.1 200 OK")
	respond.LI(isa.R3, 15)
	respond.CallImport("SSL_write", 3)
	respond.Ret()

	// on_cloud_msg(conn, ev): the async root; receives, parses, responds.
	h := a.Func("on_cloud_msg", 2, true)
	h.NameParam(isa.R1, "conn")
	h.Mov(isa.R8, isa.R1) // save conn
	h.LA(isa.R2, 0x1000_0000)
	h.LI(isa.R3, 512)
	h.LI(isa.R4, 0)
	h.CallImport("recv", 4)
	h.Mov(isa.R1, isa.R2)
	h.Call("parse_request")
	skip := h.NewLabel()
	h.LI(isa.R2, 0)
	h.Beq(isa.R1, isa.R2, skip)
	// A non-request predicate: session limit from NVRAM vs connection id.
	h.LAStr(isa.R1, "session_limit")
	h.CallImport("nvram_get", 1)
	h.Mov(isa.R9, isa.R1)
	h.Bge(isa.R9, isa.R8, skip)
	h.Mov(isa.R1, isa.R8)
	h.Call("respond")
	h.Bind(skip)
	h.Ret()

	// main: registers the handler; never calls it directly.
	m := a.Func("main", 0, true)
	m.LI(isa.R1, 2)
	m.LI(isa.R2, 1)
	m.LI(isa.R3, 0)
	m.CallImport("socket", 3)
	m.LAFunc(isa.R1, "on_cloud_msg")
	m.LI(isa.R2, 0)
	m.CallImport("event_register", 2)
	m.LI(isa.R1, 0)
	m.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

// syncLanProgram models a LAN server whose handler is directly invoked from
// main — a request handler, but not asynchronous, so not device-cloud.
func syncLanProgram(t *testing.T) *pcode.Program {
	t.Helper()
	a := asm.New("lighttpd")

	h := a.Func("serve_once", 1, true)
	h.Mov(isa.R9, isa.R1) // connection id (not request data)
	h.LA(isa.R2, 0x1000_0000)
	h.LI(isa.R3, 256)
	h.LI(isa.R4, 0)
	h.CallImport("recv", 4)
	fail := h.NewLabel()
	h.LB(isa.R5, isa.R2, 0)
	h.LI(isa.R6, 'P')
	h.Bne(isa.R5, isa.R6, fail)
	// Two non-request predicates: rate limit and socket state.
	h.LAStr(isa.R1, "rate_limit")
	h.CallImport("nvram_get", 1)
	h.Mov(isa.R10, isa.R1)
	h.Bge(isa.R9, isa.R10, fail)
	h.Mov(isa.R11, isa.R9)
	h.Blt(isa.R11, isa.R10, fail)
	h.LAStr(isa.R2, "pong")
	h.LI(isa.R3, 4)
	h.LI(isa.R4, 0)
	h.CallImport("send", 4)
	h.Bind(fail)
	h.Ret()

	m := a.Func("main", 0, true)
	m.LI(isa.R1, 9)
	m.Call("serve_once") // direct invocation: synchronous
	m.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

// ipcProgram has no network anchors at all.
func ipcProgram(t *testing.T) *pcode.Program {
	t.Helper()
	a := asm.New("ubusd")
	m := a.Func("main", 0, true)
	m.LI(isa.R1, 1)
	m.LA(isa.R2, 0x1000_0000)
	m.CallImport("ipc_recv", 2)
	m.CallImport("ipc_send", 2)
	m.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

func TestAsyncCloudExecutableIdentified(t *testing.T) {
	res := Analyze(asyncCloudProgram(t))
	if !res.IsDeviceCloud {
		t.Fatal("async cloud program not identified as device-cloud")
	}
	if len(res.Handlers) == 0 {
		t.Fatal("no handlers identified")
	}
	h := res.Handlers[0]
	if !h.Async {
		t.Error("handler not classified async")
	}
	if h.Root == nil || h.Root.Name() != "on_cloud_msg" {
		t.Errorf("handler root = %v, want on_cloud_msg", h.Root)
	}
	if h.ParseFn == nil || h.ParseFn.Name() != "parse_request" {
		t.Errorf("parse function = %v, want parse_request", h.ParseFn.Name())
	}
	if h.Score <= 0.5 {
		t.Errorf("string-parsing score = %v, want > 0.5", h.Score)
	}
	if h.In.Op().Call.Name != "recv" {
		t.Errorf("in anchor = %s", h.In.Op().Call.Name)
	}
	if h.Out.Op().Call.Name != "SSL_write" {
		t.Errorf("out anchor = %s", h.Out.Op().Call.Name)
	}
}

func TestSyncLanExecutableRejected(t *testing.T) {
	res := Analyze(syncLanProgram(t))
	if res.IsDeviceCloud {
		t.Error("sync LAN server identified as device-cloud")
	}
	// It still has a request handler — just not an asynchronous one.
	if len(res.Handlers) == 0 {
		t.Fatal("no request handler found in LAN server")
	}
	if res.Handlers[0].Async {
		t.Error("directly-invoked handler classified async")
	}
}

func TestIpcExecutableHasNoAnchors(t *testing.T) {
	res := Analyze(ipcProgram(t))
	if res.IsDeviceCloud || len(res.Handlers) != 0 {
		t.Errorf("IPC program produced handlers: %+v", res.Handlers)
	}
}

func TestParsingFactorDominatedByRequestFields(t *testing.T) {
	prog := asyncCloudProgram(t)
	res := Analyze(prog)
	if len(res.Handlers) == 0 {
		t.Fatal("no handlers")
	}
	// parse_request compares three request bytes against three constants:
	// every non-const operand traces to the request parameter, so P_f = 1.
	if got := res.Handlers[0].Score; got != 1.0 {
		t.Errorf("P_f of parse_request = %v, want 1.0", got)
	}
}

// mutualRecursionProgram wires the recv-containing function into a caller
// cycle: the asynchrony walk must terminate and classify it synchronous.
func mutualRecursionProgram(t *testing.T) *pcode.Program {
	t.Helper()
	a := asm.New("cyclic")
	fa := a.Func("ping", 0, true)
	fa.LA(isa.R2, 0x1000_0000)
	fa.LI(isa.R3, 64)
	fa.LI(isa.R4, 0)
	fa.CallImport("recv", 4)
	fa.LI(isa.R1, 3)
	fa.LAStr(isa.R2, "ok")
	fa.LI(isa.R3, 2)
	fa.LI(isa.R4, 0)
	fa.CallImport("send", 4)
	fa.Call("pong")
	fa.Ret()
	fb := a.Func("pong", 0, true)
	fb.Call("ping")
	fb.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

func TestMutualRecursionIsSynchronous(t *testing.T) {
	res := Analyze(mutualRecursionProgram(t))
	if res.IsDeviceCloud {
		t.Error("cyclic caller chain classified as device-cloud")
	}
	for _, h := range res.Handlers {
		if h.Async {
			t.Error("handler in a caller cycle classified asynchronous")
		}
	}
}

// TestAddressTakenButAlsoCalled: a handler that is registered AND directly
// invoked has a direct caller, so it is not event-based-only.
func TestAddressTakenButAlsoCalled(t *testing.T) {
	a := asm.New("mixed")
	h := a.Func("on_msg", 2, true)
	h.LA(isa.R2, 0x1000_0000)
	h.LI(isa.R3, 64)
	h.LI(isa.R4, 0)
	h.CallImport("recv", 4)
	h.LI(isa.R1, 3)
	h.LAStr(isa.R2, "ok")
	h.LI(isa.R3, 2)
	h.LI(isa.R4, 0)
	h.CallImport("send", 4)
	h.Ret()
	m := a.Func("main", 0, true)
	m.LAFunc(isa.R1, "on_msg")
	m.LI(isa.R2, 0)
	m.CallImport("event_register", 2)
	m.LI(isa.R1, 0)
	m.LI(isa.R2, 0)
	m.Call("on_msg") // direct call too
	m.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	res := Analyze(prog)
	for _, handler := range res.Handlers {
		if handler.Async {
			t.Error("directly-called handler classified asynchronous")
		}
	}
}

// TestParsingFactorPointerLoadFromGlobal: a byte loaded through a pointer
// to a global table is not request data, however the pointer is formed,
// so the predicate comparing it with a request byte counts one request
// operand of two. With a second, request-versus-constant predicate P_f is
// 2/3.
func TestParsingFactorPointerLoadFromGlobal(t *testing.T) {
	a := asm.New("cloudd")
	table := a.Bytes("table", []byte("GET"))
	parse := a.Func("parse_request", 1, true)
	fail := parse.NewLabel()
	parse.LB(isa.R2, isa.R1, 0) // request byte
	parse.LA(isa.R4, table)
	parse.LB(isa.R5, isa.R4, 0) // table byte, through an untainted pointer
	parse.Bne(isa.R2, isa.R5, fail)
	parse.LB(isa.R6, isa.R1, 1)
	parse.LI(isa.R7, 'E')
	parse.Bne(isa.R6, isa.R7, fail)
	parse.LI(isa.R1, 1)
	parse.Ret()
	parse.Bind(fail)
	parse.LI(isa.R1, 0)
	parse.Ret()
	m := a.Func("main", 0, true)
	m.Call("parse_request")
	m.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	fn, _ := prog.FuncByName("parse_request")
	caller, _ := prog.FuncByName("main")
	fx := facts.New(prog)
	// The recv callsite lies outside parse_request, so its parameters seed
	// the taint.
	if got := parsingFactor(fx.Func(fn), pcode.CallSite{Fn: caller}); got != 2.0/3.0 {
		t.Errorf("P_f = %v, want 2/3", got)
	}
}
