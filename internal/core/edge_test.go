package core

import (
	"testing"

	"firmres/internal/asm"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/isa"
)

// emitMiniCloudBinary assembles a minimal device-cloud executable with one
// message and a tunable parsing score.
func emitMiniCloudBinary(t *testing.T, name, payload string) []byte {
	t.Helper()
	a := asm.New(name)
	buf := a.Bytes("rx", make([]byte, 64))

	h := a.Func("on_msg", 2, true)
	h.Mov(isa.R8, isa.R1)
	h.LA(isa.R2, buf)
	h.LI(isa.R3, 64)
	h.LI(isa.R4, 0)
	h.CallImport("recv", 4)
	done := h.NewLabel()
	h.LB(isa.R5, isa.R2, 0)
	h.LI(isa.R6, 'X')
	h.Bne(isa.R5, isa.R6, done)
	h.Mov(isa.R1, isa.R8)
	h.LAStr(isa.R2, payload)
	h.LI(isa.R3, 16)
	h.CallImport("SSL_write", 3)
	h.Bind(done)
	h.LI(isa.R1, 0)
	h.Ret()

	m := a.Func("main", 0, true)
	m.LAFunc(isa.R1, "on_msg")
	m.LI(isa.R2, 0)
	m.CallImport("event_register", 2)
	m.LI(isa.R1, 0)
	m.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return bin.Marshal()
}

func TestPinpointPicksBestOfMultipleCandidates(t *testing.T) {
	img := &image.Image{Device: "multi", Version: "1"}
	img.AddFile("/bin/agent_a", image.ModeExec, emitMiniCloudBinary(t, "agent_a", "/a?x=1"))
	img.AddFile("/bin/agent_b", image.ModeExec, emitMiniCloudBinary(t, "agent_b", "/b?x=1"))
	res, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	if res.Executable != "/bin/agent_a" && res.Executable != "/bin/agent_b" {
		t.Errorf("executable = %q", res.Executable)
	}
	if len(res.Messages) == 0 {
		t.Error("no messages from the selected candidate")
	}
}

func TestPinpointSkipsCorruptBinary(t *testing.T) {
	img := &image.Image{Device: "corrupt", Version: "1"}
	img.AddFile("/bin/broken", image.ModeExec, []byte("FRB1garbage-that-fails-to-parse"))
	img.AddFile("/bin/good", image.ModeExec, emitMiniCloudBinary(t, "good", "/ok?x=1"))
	res, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage with corrupt sibling: %v", err)
	}
	if res.Executable != "/bin/good" {
		t.Errorf("executable = %q", res.Executable)
	}
}

func TestAnalyzeEmptyImage(t *testing.T) {
	img := &image.Image{Device: "empty", Version: "0"}
	if _, err := New(Options{}).AnalyzeImage(img); err == nil {
		t.Error("empty image produced a result")
	}
}

func TestResolverIgnoresBinaryConfigs(t *testing.T) {
	img := &image.Image{}
	img.AddFile("/etc/ssl/cert.pem", 0, []byte("-----BEGIN-----\nnot=a\nkv file"))
	img.AddFile("/etc/nvram.defaults", 0, []byte("mac=XX\n"))
	r, _ := ResolverFromImageNotes(img)
	if r.NVRAM["mac"] != "XX" {
		t.Errorf("nvram not parsed: %v", r.NVRAM)
	}
	// The PEM file must land in Files, not Config.
	if _, ok := r.Files["/etc/ssl/cert.pem"]; !ok {
		t.Error("PEM file missing from Files")
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StagePinpoint:  "pinpoint-executables",
		StageFields:    "identify-fields",
		StageSemantics: "recover-semantics",
		StageConcat:    "concatenate-fields",
		StageFormCheck: "check-forms",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d) = %q, want %q", s, s.String(), name)
		}
	}
}

func TestSortMessagesDeterministic(t *testing.T) {
	d := corpus.Device(5)
	img, err := corpus.BuildImage(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	SortMessagesByFunction(res.Messages)
	for i := 1; i < len(res.Messages); i++ {
		if res.Messages[i-1].Message.Function > res.Messages[i].Message.Function {
			t.Fatal("messages not sorted")
		}
	}
}
