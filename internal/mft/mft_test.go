package mft

import (
	"context"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/pcode"
	"firmres/internal/taint"
)

func analyze(t *testing.T, a *asm.Assembler) []*taint.MFT {
	t.Helper()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return taint.NewEngineFacts(facts.New(prog), taint.Options{}).AnalyzeContext(context.Background(), 1)
}

// strcatMessage builds "status=" + "ok" + nvram(uptime) via strcpy/strcat.
func strcatMessage(t *testing.T) *taint.MFT {
	t.Helper()
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "status=")
	f.CallImport("strcpy", 2)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "ok&uptime=")
	f.CallImport("strcat", 2)
	f.LAStr(isa.R1, "uptime")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R2, isa.R1)
	f.LA(isa.R1, buf)
	f.CallImport("strcat", 2)
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()
	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	return mfts[0]
}

func leafStrings(tr *Tree) []string {
	var out []string
	for _, l := range tr.Root.Leaves() {
		switch l.Orig.Kind {
		case taint.LeafString:
			out = append(out, l.Orig.StrVal)
		case taint.LeafNVRAM:
			out = append(out, "nvram:"+l.Orig.Key)
		default:
			out = append(out, l.Orig.Kind.String())
		}
	}
	return out
}

func TestSimplifyKeepsLeavesAndStructure(t *testing.T) {
	m := strcatMessage(t)
	tr := Simplify(m)
	if tr.Root == nil || tr.Root.Orig.Kind != taint.NodeRoot {
		t.Fatal("simplified tree lost its root")
	}
	// All original fields survive.
	if got, want := len(tr.Root.Leaves()), len(m.Fields()); got != want {
		t.Errorf("simplified tree has %d leaves, original %d", got, want)
	}
	// Simplification must shrink or preserve the node count.
	if tr.Root.Size() > m.Root.Size() {
		t.Errorf("simplified size %d exceeds original %d", tr.Root.Size(), m.Root.Size())
	}
}

func TestInvertRecoversConcatenationOrder(t *testing.T) {
	tr := Simplify(strcatMessage(t))
	// Backward order before inversion: uptime-value, "ok&uptime=", "status=".
	before := leafStrings(tr)
	if before[len(before)-1] != "status=" {
		t.Fatalf("pre-inversion leaves = %v, want status= last", before)
	}
	tr.Invert()
	after := leafStrings(tr)
	if after[0] != "status=" || after[1] != "ok&uptime=" || after[2] != "nvram:uptime" {
		t.Errorf("post-inversion leaves = %v, want [status= ok&uptime= nvram:uptime]", after)
	}
	if !tr.Inverted {
		t.Error("Inverted flag not set")
	}
}

func TestInvertIsInvolution(t *testing.T) {
	tr := Simplify(strcatMessage(t))
	before := leafStrings(tr)
	tr.Invert()
	tr.Invert()
	after := leafStrings(tr)
	if len(before) != len(after) {
		t.Fatal("leaf count changed under double inversion")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("leaf %d changed: %q -> %q", i, before[i], after[i])
		}
	}
	if tr.Inverted {
		t.Error("Inverted flag set after double inversion")
	}
}

func TestPathsNumberedAndHashed(t *testing.T) {
	tr := Simplify(strcatMessage(t))
	paths := tr.Paths()
	if len(paths) != len(tr.Root.Leaves()) {
		t.Fatalf("%d paths vs %d leaves", len(paths), len(tr.Root.Leaves()))
	}
	seen := map[uint64]bool{}
	for i, p := range paths {
		if p.ID != i {
			t.Errorf("path %d has ID %d", i, p.ID)
		}
		if seen[p.Hash] {
			t.Errorf("duplicate path hash %#x", p.Hash)
		}
		seen[p.Hash] = true
		if p.Nodes[0].Orig.Kind != taint.NodeRoot || !p.Leaf().Leaf() {
			t.Error("path endpoints wrong")
		}
	}
}

func TestSplitWrapperFanOut(t *testing.T) {
	a := asm.New("t")
	w := a.Func("cloud_send", 1, true)
	w.Mov(isa.R2, isa.R1)
	w.LI(isa.R1, 5)
	w.LI(isa.R3, 16)
	w.CallImport("SSL_write", 3)
	w.Ret()
	c1 := a.Func("send_alarm", 0, true)
	c1.LAStr(isa.R1, "ALARM")
	c1.Call("cloud_send")
	c1.Ret()
	c2 := a.Func("send_ping", 0, true)
	c2.LAStr(isa.R1, "PING")
	c2.Call("cloud_send")
	c2.Ret()

	mfts := analyze(t, a)
	if len(mfts) != 1 {
		t.Fatalf("engine produced %d MFTs", len(mfts))
	}
	parts := Split(mfts[0])
	if len(parts) != 2 {
		t.Fatalf("Split produced %d messages, want 2", len(parts))
	}
	contexts := map[string]bool{}
	for _, p := range parts {
		contexts[p.Context] = true
		if got := len(p.Fields()); got != 1 {
			t.Errorf("split message has %d fields, want 1", got)
		}
	}
	if !contexts["send_alarm"] || !contexts["send_ping"] {
		t.Errorf("split contexts = %v", contexts)
	}
	// The original tree must be untouched.
	if got := len(mfts[0].Fields()); got != 2 {
		t.Errorf("original MFT mutated: %d fields", got)
	}
}

func TestSplitNoFanOutIsIdentity(t *testing.T) {
	m := strcatMessage(t)
	parts := Split(m)
	if len(parts) != 1 || parts[0] != m {
		t.Errorf("Split fragmented a single-context message: %d parts", len(parts))
	}
}

func TestSimplifyEmptyTree(t *testing.T) {
	tr := Simplify(&taint.MFT{})
	if tr.Root != nil {
		t.Error("empty MFT produced a root")
	}
	if got := tr.Paths(); got != nil {
		t.Errorf("empty tree has paths: %v", got)
	}
	tr.Invert() // must not panic
}
