package taint

import (
	"context"
	"strings"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

func liftProgram(t *testing.T, a *asm.Assembler) *pcode.Program {
	t.Helper()
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

func analyze(t *testing.T, a *asm.Assembler) []*MFT {
	t.Helper()
	return analyzeProg(liftProgram(t, a), Options{})
}

// analyzeProg traces every delivery callsite of prog sequentially through
// a private facts store.
func analyzeProg(prog *pcode.Program, opts Options) []*MFT {
	return NewEngineFacts(facts.New(prog), opts).AnalyzeContext(context.Background(), 1)
}

// leafSummary renders leaves as "kind:value" strings for assertions.
func leafSummary(m *MFT) []string {
	var out []string
	for _, leaf := range m.Fields() {
		switch leaf.Kind {
		case LeafString:
			out = append(out, "str:"+leaf.StrVal)
		case LeafNVRAM:
			out = append(out, "nvram:"+leaf.Key)
		case LeafConfig:
			out = append(out, "config:"+leaf.Key)
		case LeafEnv:
			out = append(out, "env:"+leaf.Key)
		case LeafFile:
			out = append(out, "file:"+leaf.Key)
		case LeafNumeric:
			out = append(out, "num")
		case LeafDynamic:
			out = append(out, "dyn:"+leaf.Callee)
		default:
			out = append(out, "unknown")
		}
	}
	return out
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// TestSprintfMessage mirrors the paper's running example (Listing 1): the
// MAC address and serial number are formatted into a buffer that is sent
// with SSL_write.
func TestSprintfMessage(t *testing.T) {
	a := asm.New("rms_connect")
	buf := a.Bytes("msgbuf", make([]byte, 256))

	f := a.Func("register_device", 1, true)
	f.LAStr(isa.R1, "mac")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1) // mac
	f.LAStr(isa.R1, "serial_number")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R10, isa.R1) // serial
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, `{"mac":"%s","sn":"%s"}`)
	f.Mov(isa.R3, isa.R9)
	f.Mov(isa.R4, isa.R10)
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1) // sprintf returns dst
	f.LI(isa.R1, 1)       // ssl handle
	f.LI(isa.R3, 64)
	f.CallImport("SSL_write", 3)
	f.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs, want 1", len(mfts))
	}
	m := mfts[0]
	if m.Deliver != "SSL_write" {
		t.Errorf("Deliver = %q", m.Deliver)
	}
	leaves := leafSummary(m)
	for _, want := range []string{`str:{"mac":"%s","sn":"%s"}`, "nvram:mac", "nvram:serial_number"} {
		if !contains(leaves, want) {
			t.Errorf("leaves %v missing %q", leaves, want)
		}
	}
	// The sprintf node must carry the resolved format string.
	var sawFormat bool
	m.Root.Walk(func(n *Node) {
		if n.Kind == NodeCall && n.Callee == "sprintf" && strings.Contains(n.Format, `"mac"`) {
			sawFormat = true
		}
	})
	if !sawFormat {
		t.Error("sprintf node lacks resolved format string")
	}
}

// TestStrcatAccumulation checks append-mode writers are collected in
// reverse order (backward-walk convention).
func TestStrcatAccumulation(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	f := a.Func("send_status", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "status=")
	f.CallImport("strcpy", 2)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "ok&uptime=")
	f.CallImport("strcat", 2)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "42")
	f.CallImport("strcat", 2)
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 32)
	f.LI(isa.R4, 0)
	f.CallImport("send", 4)
	f.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	leaves := leafSummary(mfts[0])
	// Backward order: last-appended leaf first.
	want := []string{"str:42", "str:ok&uptime=", "str:status="}
	if len(leaves) != len(want) {
		t.Fatalf("leaves = %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Errorf("leaf %d = %q, want %q (backward order)", i, leaves[i], want[i])
		}
	}
}

// TestStrcpyOverwriteStopsScan: content before an overwriting strcpy must
// not appear in the tree.
func TestStrcpyOverwriteStopsScan(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "stale")
	f.CallImport("strcpy", 2)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "fresh")
	f.CallImport("strcpy", 2)
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 8)
	f.LI(isa.R4, 0)
	f.CallImport("send", 4)
	f.Ret()

	leaves := leafSummary(analyze(t, a)[0])
	if contains(leaves, "str:stale") {
		t.Errorf("overwritten content leaked into tree: %v", leaves)
	}
	if !contains(leaves, "str:fresh") {
		t.Errorf("fresh content missing: %v", leaves)
	}
}

// TestJSONAssembly checks the cJSON construction channel with key recovery.
func TestJSONAssembly(t *testing.T) {
	a := asm.New("t")
	f := a.Func("report", 0, true)
	f.CallImport("cJSON_CreateObject", 0)
	f.Mov(isa.R9, isa.R1) // obj
	f.Mov(isa.R1, isa.R9)
	f.LAStr(isa.R2, "deviceId")
	f.LAStr(isa.R3, "cam-001")
	f.CallImport("cJSON_AddStringToObject", 3)
	f.Mov(isa.R1, isa.R9)
	f.LAStr(isa.R2, "token")
	f.LAStr(isa.R3, "secret-token")
	f.CallImport("cJSON_AddStringToObject", 3)
	f.Mov(isa.R1, isa.R9)
	f.CallImport("cJSON_PrintUnformatted", 1)
	f.Mov(isa.R3, isa.R1) // payload
	f.LI(isa.R1, 7)       // conn
	f.LAStr(isa.R2, "/sys/properties/report")
	f.CallImport("mqtt_publish", 3)
	f.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	m := mfts[0]
	// Keys recovered on the AddString nodes.
	var keys []string
	m.Root.Walk(func(n *Node) {
		if n.Kind == NodeCall && n.Callee == "cJSON_AddStringToObject" {
			keys = append(keys, n.Key)
		}
	})
	// Backward order: token first, then deviceId.
	if len(keys) != 2 || keys[0] != "token" || keys[1] != "deviceId" {
		t.Errorf("JSON keys = %v, want [token deviceId]", keys)
	}
	leaves := leafSummary(m)
	for _, want := range []string{"str:cam-001", "str:secret-token", "str:/sys/properties/report"} {
		if !contains(leaves, want) {
			t.Errorf("leaves %v missing %q", leaves, want)
		}
	}
	// The topic must be traced as its own labelled argument.
	var topicArg *Node
	for _, c := range m.Root.Children {
		if c.ArgLabel == "topic" {
			topicArg = c
		}
	}
	if topicArg == nil {
		t.Fatal("no topic argument node")
	}
}

// TestCrossFunctionBufferWriter: the message is partially constructed in a
// helper that receives the buffer as a parameter.
func TestCrossFunctionBufferWriter(t *testing.T) {
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

	leaves := leafSummary(analyze(t, a)[0])
	if !contains(leaves, "nvram:device_id") {
		t.Errorf("callee-written field missing: %v", leaves)
	}
	if !contains(leaves, "str:id=") {
		t.Errorf("caller-written prefix missing: %v", leaves)
	}
}

// TestReturnDescent: the payload comes from a local function's return value.
func TestReturnDescent(t *testing.T) {
	a := asm.New("t")
	g := a.Func("get_cred", 0, true)
	g.LAStr(isa.R1, "cloud_password")
	g.CallImport("config_read", 1)
	g.Ret()

	f := a.Func("login", 0, true)
	f.Call("get_cred")
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 16)
	f.CallImport("SSL_write", 3)
	f.Ret()

	m := analyze(t, a)[0]
	leaves := leafSummary(m)
	if !contains(leaves, "config:cloud_password") {
		t.Errorf("return-descent field missing: %v", leaves)
	}
	var sawReturn bool
	m.Root.Walk(func(n *Node) {
		if n.Kind == NodeReturn && n.Callee == "get_cred" {
			sawReturn = true
		}
	})
	if !sawReturn {
		t.Error("no NodeReturn recorded for local call descent")
	}
}

// TestParamCrossingToCallers: a wrapper sends msg built by two different
// callers; tracing must analyze all callsites.
func TestParamCrossingToCallers(t *testing.T) {
	a := asm.New("t")
	// Wrapper: SSL_write(ssl=5, msg=param0, len=16). Param 0 arrives in R1
	// and is moved to R2 (the payload register).
	w := a.Func("cloud_send", 1, true)
	w.Mov(isa.R2, isa.R1)
	w.LI(isa.R1, 5)
	w.LI(isa.R3, 16)
	w.CallImport("SSL_write", 3)
	w.Ret()

	c1 := a.Func("send_alarm", 0, true)
	c1.LAStr(isa.R1, "ALARM:motion")
	c1.Call("cloud_send")
	c1.Ret()

	c2 := a.Func("send_heartbeat", 0, true)
	c2.LAStr(isa.R1, "PING")
	c2.Call("cloud_send")
	c2.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	leaves := leafSummary(mfts[0])
	if !contains(leaves, "str:ALARM:motion") || !contains(leaves, "str:PING") {
		t.Errorf("caller-provided payloads missing: %v", leaves)
	}
}

// TestStoreNoise reproduces the paper's false-positive mode: a raw word
// store of a meaningless numeric constant into the message buffer appears
// as a numeric field.
func TestStoreNoise(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 64))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "user=")
	f.CallImport("strcpy", 2)
	f.LA(isa.R5, buf)
	f.LI(isa.R6, 0x5353414d) // "MASS" — disassembly-noise store
	f.SW(isa.R5, 8, isa.R6)
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 16)
	f.LI(isa.R4, 0)
	f.CallImport("send", 4)
	f.Ret()

	leaves := leafSummary(analyze(t, a)[0])
	if !contains(leaves, "num") {
		t.Errorf("numeric store noise not captured (over-taint expected): %v", leaves)
	}
	if !contains(leaves, "str:user=") {
		t.Errorf("real field missing: %v", leaves)
	}
}

// TestSignatureDerivation: hmac_sha256(secret, data, out) marks the
// Signature construction with both dependencies.
func TestSignatureDerivation(t *testing.T) {
	a := asm.New("t")
	sig := a.Bytes("sigbuf", make([]byte, 32))
	f := a.Func("f", 0, true)
	f.LAStr(isa.R1, "device_secret")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1)
	f.Mov(isa.R1, isa.R9)
	f.LAStr(isa.R2, "ts=1699999999")
	f.LA(isa.R3, sig)
	f.CallImport("hmac_sha256", 3)
	f.Mov(isa.R2, isa.R1) // returns dst
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()

	m := analyze(t, a)[0]
	var hmacNode *Node
	m.Root.Walk(func(n *Node) {
		if n.Kind == NodeCall && n.Callee == "hmac_sha256" {
			hmacNode = n
		}
	})
	if hmacNode == nil {
		t.Fatal("no hmac_sha256 node")
	}
	leaves := leafSummary(m)
	if !contains(leaves, "nvram:device_secret") {
		t.Errorf("signature key dependency missing: %v", leaves)
	}
}

// TestHTTPPostTracesPathAndBody: both labelled arguments are roots.
func TestHTTPPostTracesPathAndBody(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	f.LI(isa.R1, 9)
	f.LAStr(isa.R2, "?m=camera&a=login")
	f.LAStr(isa.R3, "uid=1234")
	f.CallImport("http_post", 3)
	f.Ret()

	m := analyze(t, a)[0]
	labels := map[string]bool{}
	for _, c := range m.Root.Children {
		labels[c.ArgLabel] = true
	}
	if !labels["path"] || !labels["body"] {
		t.Errorf("root children labels = %v", labels)
	}
	leaves := leafSummary(m)
	if !contains(leaves, "str:?m=camera&a=login") || !contains(leaves, "str:uid=1234") {
		t.Errorf("path/body constants missing: %v", leaves)
	}
}

// TestDynamicLeaf: time() is a dynamic (non-primitive) source.
func TestDynamicLeaf(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	f.LI(isa.R1, 0)
	f.CallImport("time", 1)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 4)
	f.CallImport("SSL_write", 3)
	f.Ret()

	leaves := leafSummary(analyze(t, a)[0])
	if !contains(leaves, "dyn:time") {
		t.Errorf("dynamic source not labelled: %v", leaves)
	}
}

// TestPathsEnumeration: every leaf appears in exactly one root-to-leaf path.
func TestPathsEnumeration(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 64))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "a=%s&b=%s")
	f.LAStr(isa.R3, "one")
	f.LAStr(isa.R4, "two")
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 16)
	f.CallImport("SSL_write", 3)
	f.Ret()

	m := analyze(t, a)[0]
	paths := m.Paths()
	fields := m.Fields()
	if len(paths) != len(fields) {
		t.Fatalf("%d paths vs %d fields", len(paths), len(fields))
	}
	for _, p := range paths {
		if p[0].Kind != NodeRoot {
			t.Error("path does not start at root")
		}
		if !p[len(p)-1].Leaf() {
			t.Error("path does not end at a leaf")
		}
	}
}

// TestEngineBudget: a pathological self-recursive construction must
// terminate under the node budget.
func TestEngineBudget(t *testing.T) {
	a := asm.New("t")
	f := a.Func("loopy", 1, true)
	f.Mov(isa.R2, isa.R1)
	f.Call("loopy") // recursive; return value feeds the send
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 8)
	f.CallImport("SSL_write", 3)
	f.Ret()

	mfts := analyzeProg(liftProgram(t, a), Options{MaxDepth: 8, MaxNodes: 64})
	if len(mfts) == 0 {
		t.Fatal("no MFTs")
	}
	if size := mfts[0].Root.Size(); size > 2000 {
		t.Errorf("tree exploded to %d nodes despite budget", size)
	}
}

// TestMultiHopArgStrings: both the NVRAM key and the format string are
// staged through intermediate registers before their calls. The reaching
// definition at each callsite is a register-to-register COPY, so the old
// single-hop scan recovered nothing; the constant-propagation backing
// follows the whole chain.
func TestMultiHopArgStrings(t *testing.T) {
	a := asm.New("hop")
	buf := a.Bytes("msgbuf", make([]byte, 256))

	f := a.Func("register_device", 1, true)
	f.LAStr(isa.R13, "mac")
	f.Mov(isa.R12, isa.R13)
	f.Mov(isa.R1, isa.R12) // key laundered through two hops
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R13, "mac=%s")
	f.Mov(isa.R2, isa.R13) // format staged through a hop
	f.Mov(isa.R3, isa.R9)
	f.CallImport("sprintf", 3)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 1)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs, want 1", len(mfts))
	}
	leaves := leafSummary(mfts[0])
	if !contains(leaves, "nvram:mac") {
		t.Errorf("staged nvram key not recovered: %v", leaves)
	}
	foundFormat := false
	mfts[0].Root.Walk(func(n *Node) {
		if n.Format == "mac=%s" {
			foundFormat = true
		}
	})
	if !foundFormat {
		t.Errorf("staged format string not recovered; leaves = %v", leaves)
	}
}

// TestPointerLoadTracesBase: a value loaded through a pointer that is not
// a stack slot is traced on through the pointer, so a field read out of an
// NVRAM value keeps its NVRAM source instead of becoming unknown.
func TestPointerLoadTracesBase(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	f.LAStr(isa.R1, "device_info")
	f.CallImport("nvram_get", 1)
	f.LW(isa.R2, isa.R1, 4) // pointer-based load through the NVRAM value
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 4)
	f.CallImport("SSL_write", 3)
	f.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs, want 1", len(mfts))
	}
	if leaves := leafSummary(mfts[0]); !contains(leaves, "nvram:device_info") || contains(leaves, "unknown") {
		t.Errorf("leaves = %v, want the load traced to nvram:device_info", leaves)
	}
}
