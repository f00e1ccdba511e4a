package slices

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/mft"
	"firmres/internal/pcode"
	"firmres/internal/taint"
)

func analyzeOne(t *testing.T, a *asm.Assembler) *mft.Tree {
	t.Helper()
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
		t.Fatalf("got %d MFTs, want 1", len(mfts))
	}
	return mft.Simplify(mfts[0])
}

func TestSplitFormat(t *testing.T) {
	tests := []struct {
		format string
		want   []Part
	}{
		{"mac=%s&sn=%s", []Part{
			{Text: "mac="}, {Text: "%s", Verb: true},
			{Text: "&sn="}, {Text: "%s", Verb: true},
		}},
		{"%d items", []Part{
			{Text: "%d", Verb: true}, {Text: " items"},
		}},
		{"100%% sure", []Part{{Text: "100% sure"}}},
		{"pad=%02x!", []Part{
			{Text: "pad="}, {Text: "%02x", Verb: true}, {Text: "!"},
		}},
		{"no verbs", []Part{{Text: "no verbs"}}},
		{"", nil},
		{"trailing %", []Part{{Text: "trailing %"}}},
	}
	for _, tt := range tests {
		got := SplitFormat(tt.format)
		if len(got) != len(tt.want) {
			t.Errorf("SplitFormat(%q) = %+v, want %+v", tt.format, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("SplitFormat(%q)[%d] = %+v, want %+v", tt.format, i, got[i], tt.want[i])
			}
		}
	}
}

func TestSimilarity(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"abc", "abc", 1},
		{"", "", 1},
		{"abc", "", 0},
		{"abcd", "bc", 2 * 2.0 / 6.0},
		{"&sn=", "&id=", 2 * 3.0 / 8.0}, // LCS "&=" ... actually "&" + "=" + ... check below
	}
	for _, tt := range tests[:4] {
		if got := Similarity(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Similarity(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	// "&sn=" vs "&id=": LCS is "&=" (length 2)? No: "&" then "=" yes, but also
	// no common middle characters, so LCS length is 2 and similarity 0.5.
	if got := Similarity("&sn=", "&id="); math.Abs(got-0.5) > 1e-12 {
		t.Errorf(`Similarity("&sn=", "&id=") = %v, want 0.5`, got)
	}
}

func TestSimilarityProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return Similarity(a, b) == Similarity(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	bounded := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
	identity := func(a string) bool {
		return Similarity(a, a) == 1
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
}

func TestCluster(t *testing.T) {
	items := []string{"&sn=", "&id=", "&mac=", "Host: ", "Auth: ", "xyzzy"}
	// At a high threshold few merge; at a low threshold more merge.
	high := Cluster(items, 0.9)
	low := Cluster(items, 0.3)
	if len(low) > len(high) {
		t.Errorf("lower threshold produced more clusters: %d vs %d", len(low), len(high))
	}
	if len(Cluster(nil, 0.5)) != 0 {
		t.Error("empty input produced clusters")
	}
	one := Cluster([]string{"only"}, 0.5)
	if len(one) != 1 || len(one[0]) != 1 {
		t.Errorf("singleton clustering = %v", one)
	}
	// All members must be preserved.
	count := 0
	for _, c := range low {
		count += len(c)
	}
	if count != len(items) {
		t.Errorf("clustering lost members: %d of %d", count, len(items))
	}
}

func TestClusterThresholdMonotonicity(t *testing.T) {
	items := []string{"&sn=", "&id=", "&mac=", "&ver=", "uid=", "token=", "Host: "}
	prev := 0
	for _, thd := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		n := len(Cluster(items, thd))
		if n < prev {
			t.Errorf("cluster count decreased at threshold %v: %d < %d", thd, n, prev)
		}
		prev = n
	}
}

// TestClusterCountsMatchesCluster: scoring each pair once and counting
// components at every threshold gives the cluster count Cluster gives,
// over seeded random strings drawn from a small alphabet so that pairs
// land on both sides of every threshold.
func TestClusterCountsMatchesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	thresholds := []float64{0, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 1}
	for trial := 0; trial < 200; trial++ {
		items := make([]string, rng.Intn(12))
		for i := range items {
			b := make([]byte, rng.Intn(7))
			for j := range b {
				b[j] = "&=abc:"[rng.Intn(6)]
			}
			items[i] = string(b)
		}
		got := ClusterCounts(items, thresholds)
		for k, thd := range thresholds {
			if want := len(Cluster(items, thd)); got[k] != want {
				t.Fatalf("ClusterCounts(%q)[%v] = %d, Cluster gives %d clusters", items, thd, got[k], want)
			}
		}
	}
}

func TestGenerateSlicesFromSprintfMessage(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	f := a.Func("f", 0, true)
	f.LAStr(isa.R1, "mac")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1)
	f.LAStr(isa.R1, "sn")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R10, isa.R1)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "mac=%s&sn=%s")
	f.Mov(isa.R3, isa.R9)
	f.Mov(isa.R4, isa.R10)
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()

	tree := analyzeOne(t, a)
	sl := Generate(tree)
	if len(sl) == 0 {
		t.Fatal("no slices")
	}
	hints := map[string]bool{}
	for _, s := range sl {
		hints[s.KeyHint] = true
		if len(s.Steps) == 0 {
			t.Error("slice with no steps")
		}
		if s.MFT == nil || s.Leaf == nil {
			t.Error("slice missing tree references")
		}
	}
	// The two value fields must carry their format segments as hints.
	if !hints["mac="] {
		t.Errorf("missing hint mac=, got %v", hints)
	}
	if !hints["&sn="] {
		t.Errorf("missing hint &sn=, got %v", hints)
	}
}

func TestGenerateSlicesFromJSONMessage(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	f.CallImport("cJSON_CreateObject", 0)
	f.Mov(isa.R9, isa.R1)
	f.Mov(isa.R1, isa.R9)
	f.LAStr(isa.R2, "deviceId")
	f.LAStr(isa.R1, "device_id") // key for nvram
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R3, isa.R1)
	f.Mov(isa.R1, isa.R9)
	f.CallImport("cJSON_AddStringToObject", 3)
	f.Mov(isa.R1, isa.R9)
	f.CallImport("cJSON_PrintUnformatted", 1)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 64)
	f.CallImport("SSL_write", 3)
	f.Ret()

	tree := analyzeOne(t, a)
	sl := Generate(tree)
	var found bool
	for _, s := range sl {
		if s.KeyHint == "deviceId" && s.Leaf.Orig.Kind == taint.LeafNVRAM {
			found = true
		}
	}
	if !found {
		t.Errorf("no slice with JSON key hint deviceId; slices: %d", len(sl))
	}
}

func TestFormatSubstrings(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 128))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "mac=%s&sn=%s")
	f.LAStr(isa.R3, "m")
	f.LAStr(isa.R4, "s")
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 32)
	f.CallImport("SSL_write", 3)
	f.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	mfts := taint.NewEngineFacts(facts.New(prog), taint.Options{}).AnalyzeContext(context.Background(), 1)
	subs, sawFormat := FormatSubstrings(mfts)
	if !sawFormat {
		t.Fatal("FormatSubstrings reported no format strings")
	}
	want := map[string]bool{"mac=": true, "&sn=": true}
	for _, s := range subs {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("FormatSubstrings missing %v (got %v)", want, subs)
	}
}
