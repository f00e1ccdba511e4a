package fields

import (
	"context"
	"strings"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/mft"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

func buildTree(t *testing.T, build func(a *asm.Assembler)) *mft.Tree {
	t.Helper()
	a := asm.New("t")
	build(a)
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	mfts := taint.NewEngineFacts(facts.New(prog), taint.Options{}).AnalyzeContext(context.Background(), 1)
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	return mft.Simplify(mfts[0])
}

// classify runs the keyword classifier over the tree's slices.
func classify(tree *mft.Tree) []SliceInfo {
	kc := &semantics.KeywordClassifier{}
	var infos []SliceInfo
	for _, s := range slices.Generate(tree) {
		label, conf := kc.Classify(s)
		infos = append(infos, SliceInfo{Slice: s, Label: label, Confidence: conf})
	}
	return infos
}

func TestBuildSprintfQueryMessage(t *testing.T) {
	tree := buildTree(t, func(a *asm.Assembler) {
		buf := a.Bytes("msg", make([]byte, 128))
		f := a.Func("register", 0, true)
		f.LAStr(isa.R1, "mac")
		f.CallImport("nvram_get", 1)
		f.Mov(isa.R9, isa.R1)
		f.LAStr(isa.R1, "serial")
		f.CallImport("nvram_get", 1)
		f.Mov(isa.R10, isa.R1)
		f.LA(isa.R1, buf)
		f.LAStr(isa.R2, "mac=%s&sn=%s")
		f.Mov(isa.R3, isa.R9)
		f.Mov(isa.R4, isa.R10)
		f.CallImport("sprintf", 4)
		f.Mov(isa.R2, isa.R1)
		f.LI(isa.R1, 5)
		f.LI(isa.R3, 64)
		f.CallImport("SSL_write", 3)
		f.Ret()
	})
	resolver := &MapResolver{NVRAM: map[string]string{
		"mac": "AA:BB:CC:00:11:22", "serial": "1102202842",
	}}
	msg := Build(tree, classify(tree), resolver)
	if msg.Discarded {
		t.Fatalf("message discarded: %s", msg.Reason)
	}
	if msg.Format != FormatQuery {
		t.Errorf("format = %v, want query", msg.Format)
	}
	if want := "mac=AA:BB:CC:00:11:22&sn=1102202842"; msg.Body != want {
		t.Errorf("body = %q, want %q", msg.Body, want)
	}
	if msg.Function != "register" || msg.Deliver != "SSL_write" {
		t.Errorf("metadata = %q/%q", msg.Function, msg.Deliver)
	}
	// Fields must include the two NVRAM sources with semantics.
	var macField *Field
	for i := range msg.Fields {
		if msg.Fields[i].SourceKey == "mac" {
			macField = &msg.Fields[i]
		}
	}
	if macField == nil {
		t.Fatalf("no mac field: %+v", msg.Fields)
	}
	if macField.Semantics != semantics.LabelDevIdentifier {
		t.Errorf("mac field semantics = %q", macField.Semantics)
	}
	if macField.Value != "AA:BB:CC:00:11:22" {
		t.Errorf("mac field value = %q", macField.Value)
	}
}

func TestBuildJSONMessage(t *testing.T) {
	tree := buildTree(t, func(a *asm.Assembler) {
		f := a.Func("report", 0, true)
		f.CallImport("cJSON_CreateObject", 0)
		f.Mov(isa.R9, isa.R1)
		f.Mov(isa.R1, isa.R9)
		f.LAStr(isa.R2, "deviceId")
		f.LAStr(isa.R1, "device_id")
		f.CallImport("nvram_get", 1)
		f.Mov(isa.R3, isa.R1)
		f.Mov(isa.R1, isa.R9)
		f.CallImport("cJSON_AddStringToObject", 3)
		f.Mov(isa.R1, isa.R9)
		f.LAStr(isa.R2, "status")
		f.LAStr(isa.R3, "online")
		f.CallImport("cJSON_AddStringToObject", 3)
		f.Mov(isa.R1, isa.R9)
		f.CallImport("cJSON_PrintUnformatted", 1)
		f.Mov(isa.R3, isa.R1)
		f.LI(isa.R1, 7)
		f.LAStr(isa.R2, "/sys/properties/report")
		f.CallImport("mqtt_publish", 3)
		f.Ret()
	})
	resolver := &MapResolver{NVRAM: map[string]string{"device_id": "cam-007"}}
	msg := Build(tree, classify(tree), resolver)
	if msg.Format != FormatMQTT {
		t.Errorf("format = %v, want mqtt", msg.Format)
	}
	if msg.Topic != "/sys/properties/report" {
		t.Errorf("topic = %q", msg.Topic)
	}
	want := `{"deviceId":"cam-007","status":"online"}`
	if msg.Body != want {
		t.Errorf("body = %q, want %q", msg.Body, want)
	}
}

func TestBuildHTTPMessage(t *testing.T) {
	tree := buildTree(t, func(a *asm.Assembler) {
		f := a.Func("upload", 0, true)
		f.LI(isa.R1, 9)
		f.LAStr(isa.R2, "?m=camera&a=login")
		f.LAStr(isa.R3, "uid=1234")
		f.CallImport("http_post", 3)
		f.Ret()
	})
	msg := Build(tree, classify(tree), nil)
	if msg.Format != FormatHTTP {
		t.Errorf("format = %v, want http", msg.Format)
	}
	if msg.Path != "?m=camera&a=login" {
		t.Errorf("path = %q", msg.Path)
	}
	if msg.Body != "uid=1234" {
		t.Errorf("body = %q", msg.Body)
	}
}

func TestLANFilterDiscardsTree(t *testing.T) {
	tree := buildTree(t, func(a *asm.Assembler) {
		buf := a.Bytes("msg", make([]byte, 64))
		f := a.Func("local_sync", 0, true)
		f.LA(isa.R1, buf)
		f.LAStr(isa.R2, "http://192.168.1.1/sync?id=%s")
		f.LAStr(isa.R3, "abc")
		f.CallImport("sprintf", 3)
		f.Mov(isa.R2, isa.R1)
		f.LI(isa.R1, 5)
		f.LI(isa.R3, 32)
		f.CallImport("SSL_write", 3)
		f.Ret()
	})
	// Classify, forcing the URL slice to Address (as the model would).
	kc := &semantics.KeywordClassifier{}
	var infos []SliceInfo
	for _, s := range slices.Generate(tree) {
		label, conf := kc.Classify(s)
		if s.Leaf.Orig.Kind == taint.LeafString &&
			strings.Contains(s.Leaf.Orig.StrVal, "192.168") {
			label = semantics.LabelAddress
		}
		infos = append(infos, SliceInfo{Slice: s, Label: label, Confidence: conf})
	}
	msg := Build(tree, infos, nil)
	if !msg.Discarded {
		t.Fatal("LAN message not discarded")
	}
	if !strings.Contains(msg.Reason, "192.168") {
		t.Errorf("reason = %q", msg.Reason)
	}
}

func TestIsLANAddress(t *testing.T) {
	lan := []string{
		"10.0.0.1", "172.16.0.1", "172.31.255.255", "192.168.1.1",
		"FE80::1", "fe80::abcd", "224.0.0.1", "239.1.2.3", "255.255.255.255",
		"http://192.168.0.1/path", "10.1.2.3:8080",
	}
	for _, s := range lan {
		if !IsLANAddress(s) {
			t.Errorf("IsLANAddress(%q) = false", s)
		}
	}
	wan := []string{
		"8.8.8.8", "47.88.12.3", "172.15.0.1", "172.32.0.1", "192.167.1.1",
		"cloud.vendor.com", "www.linksyssmartwifi.com", "", "223.5.5.5",
	}
	for _, s := range wan {
		if IsLANAddress(s) {
			t.Errorf("IsLANAddress(%q) = true", s)
		}
	}
}

func TestHMACRendering(t *testing.T) {
	tree := buildTree(t, func(a *asm.Assembler) {
		sig := a.Bytes("sigbuf", make([]byte, 32))
		f := a.Func("f", 0, true)
		f.LAStr(isa.R1, "device_secret")
		f.CallImport("nvram_get", 1)
		f.Mov(isa.R9, isa.R1)
		f.Mov(isa.R1, isa.R9)
		f.LAStr(isa.R2, "ts=1700000000")
		f.LA(isa.R3, sig)
		f.CallImport("hmac_sha256", 3)
		f.Mov(isa.R2, isa.R1)
		f.LI(isa.R1, 5)
		f.LI(isa.R3, 32)
		f.CallImport("SSL_write", 3)
		f.Ret()
	})
	resolver := &MapResolver{NVRAM: map[string]string{"device_secret": "s3cr3t"}}
	msg := Build(tree, classify(tree), resolver)
	// Body must be a 64-hex-char HMAC digest.
	if len(msg.Body) != 64 {
		t.Fatalf("body = %q (len %d), want 64 hex chars", msg.Body, len(msg.Body))
	}
	for _, c := range msg.Body {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("body not hex: %q", msg.Body)
		}
	}
}

func TestMapResolverFallback(t *testing.T) {
	r := &MapResolver{NVRAM: map[string]string{"mac": "x"}}
	if v, ok := r.Resolve(&taint.Node{Kind: taint.LeafNVRAM, Key: "mac"}); !ok || v != "x" {
		t.Errorf("Resolve = %q, %v", v, ok)
	}
	if _, ok := r.Resolve(&taint.Node{Kind: taint.LeafNVRAM, Key: "missing"}); ok {
		t.Error("missing key resolved")
	}
	if _, ok := r.Resolve(&taint.Node{Kind: taint.LeafString, StrVal: "s"}); ok {
		t.Error("string leaf resolved through maps")
	}
	// Unresolvable keys render as placeholders.
	got := renderLeaf(&taint.Node{Kind: taint.LeafEnv, Key: "user_token"}, r)
	if got != "<user_token>" {
		t.Errorf("placeholder = %q", got)
	}
}

func TestBuildEmptyTree(t *testing.T) {
	msg := Build(&mft.Tree{Source: &taint.MFT{Deliver: "send"}}, nil, nil)
	if !msg.Discarded {
		t.Error("empty tree not discarded")
	}
}

// TestBuildDuplicateHashLaterInfoWins: when two slice infos carry the same
// path hash, the field takes the later one, as a map keyed by hash would.
func TestBuildDuplicateHashLaterInfoWins(t *testing.T) {
	leaf := &taint.Node{Kind: taint.LeafNVRAM, Key: "serial"}
	arg := &taint.Node{Kind: taint.NodeArg, ArgLabel: "payload", Children: []*taint.Node{leaf}}
	tree := mft.Simplify(&taint.MFT{Deliver: "SSL_write", Root: &taint.Node{Kind: taint.NodeRoot, Children: []*taint.Node{arg}}})
	paths := tree.Paths()
	if len(paths) != 1 {
		t.Fatalf("%d paths, want 1", len(paths))
	}
	h := paths[0].Hash
	infos := []SliceInfo{
		{Slice: slices.Slice{PathHash: h, KeyHint: "first"}, Label: semantics.LabelNone, Confidence: 0.1},
		{Slice: slices.Slice{PathHash: h + 1, KeyHint: "other"}, Label: semantics.LabelBindToken, Confidence: 0.2},
		{Slice: slices.Slice{PathHash: h, KeyHint: "sn="}, Label: semantics.LabelDevIdentifier, Confidence: 0.9},
	}
	msg := Build(tree, infos, nil)
	if len(msg.Fields) != 1 {
		t.Fatalf("%d fields, want 1", len(msg.Fields))
	}
	f := msg.Fields[0]
	if f.Semantics != semantics.LabelDevIdentifier || f.Key != "sn=" || f.Confidence != 0.9 {
		t.Errorf("field = {%q, key %q, conf %v}, want the later info {%q, key %q, conf 0.9}",
			f.Semantics, f.Key, f.Confidence, semantics.LabelDevIdentifier, "sn=")
	}
}
