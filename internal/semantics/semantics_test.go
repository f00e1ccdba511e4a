package semantics

import (
	"context"
	"strings"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/mft"
	"firmres/internal/nn"
	"firmres/internal/pcode"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// buildSlices assembles a two-field sprintf message and returns its slices.
func buildSlices(t *testing.T) []slices.Slice {
	t.Helper()
	a := asm.New("t")
	buf := a.Bytes("msgbuf", make([]byte, 128))
	f := a.Func("register_device", 0, true)
	f.LAStr(isa.R1, "mac_addr")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1)
	f.NameVar(isa.R9, "macBuf")
	f.LAStr(isa.R1, "device_secret")
	f.CallImport("config_read", 1)
	f.Mov(isa.R10, isa.R1)
	f.NameVar(isa.R10, "secretKey")
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "mac=%s&secret=%s")
	f.Mov(isa.R3, isa.R9)
	f.Mov(isa.R4, isa.R10)
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 64)
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
	if len(mfts) != 1 {
		t.Fatalf("got %d MFTs", len(mfts))
	}
	return slices.Generate(mft.Simplify(mfts[0]))
}

func TestEnrichSliceContainsSymbolsAndConstants(t *testing.T) {
	sl := buildSlices(t)
	var all string
	for _, s := range sl {
		all += EnrichSlice(s) + "\n"
	}
	for _, want := range []string{"CALL", "(Fun, sprintf)", "(Fun, nvram_get)",
		`"mac=%s&secret=%s"`, "mac_addr"} {
		if !strings.Contains(all, want) {
			t.Errorf("enriched slices missing %q:\n%s", want, all)
		}
	}
}

func TestEnrichUsesDebugNames(t *testing.T) {
	sl := buildSlices(t)
	var all string
	for _, s := range sl {
		all += EnrichSlice(s)
	}
	if !strings.Contains(all, "macBuf") && !strings.Contains(all, "secretKey") {
		t.Errorf("enrichment never used debug variable names:\n%s", all)
	}
}

func TestKeywordClassifier(t *testing.T) {
	sl := buildSlices(t)
	kc := &KeywordClassifier{}
	labels := map[string]bool{}
	for _, s := range sl {
		label, conf := kc.Classify(s)
		labels[label] = true
		if conf <= 0 || conf > 1 {
			t.Errorf("confidence %v out of range", conf)
		}
	}
	if !labels[LabelDevIdentifier] {
		t.Errorf("keyword classifier found labels %v, want Dev-Identifier present", labels)
	}
	if !labels[LabelDevSecret] {
		t.Errorf("keyword classifier found labels %v, want Dev-Secret present", labels)
	}
}

func TestClassifyTokensDirect(t *testing.T) {
	tests := []struct {
		tokens []string
		want   string
	}{
		{[]string{"nvram", "get", "mac", "serial"}, LabelDevIdentifier},
		{[]string{"device", "secret", "cert"}, LabelDevSecret},
		{[]string{"cloud", "username", "password"}, LabelUserCred},
		{[]string{"access", "token", "session"}, LabelBindToken},
		{[]string{"hmac", "sign", "digest"}, LabelSignature},
		{[]string{"broker", "host", "url"}, LabelAddress},
		{[]string{"uptime", "counter"}, LabelNone},
		{nil, LabelNone},
		// A single dictionary hit is below the evidence threshold: shared
		// construction context must not classify a field on its own.
		{[]string{"token", "buffer", "copy"}, LabelNone},
		// Compound: "device"+"id" → "deviceid", plus "uid" → two hits.
		{[]string{"device", "id", "uid", "report"}, LabelDevIdentifier},
	}
	for _, tt := range tests {
		if got, _ := ClassifyTokens(tt.tokens); got != tt.want {
			t.Errorf("ClassifyTokens(%v) = %q, want %q", tt.tokens, got, tt.want)
		}
	}
}

func TestLabelIndex(t *testing.T) {
	if LabelIndex(LabelNone) != len(Labels)-1 {
		t.Error("LabelNone not last")
	}
	if LabelIndex("bogus") != -1 {
		t.Error("bogus label resolved")
	}
	for i, l := range Labels {
		if LabelIndex(l) != i {
			t.Errorf("LabelIndex(%s) = %d, want %d", l, LabelIndex(l), i)
		}
	}
}

func TestTrainModelEndToEnd(t *testing.T) {
	// Build a small synthetic dataset from keyword-flavored token sets.
	var examples []Example
	seedTokens := map[string][][]string{
		LabelDevIdentifier: {{"nvram", "get", "mac"}, {"serial", "number", "device", "id"}, {"uuid", "product"}},
		LabelDevSecret:     {{"device", "secret", "key"}, {"certificate", "pem"}, {"read", "file", "secret"}},
		LabelUserCred:      {{"cloud", "username"}, {"password", "login"}, {"user", "account"}},
		LabelBindToken:     {{"access", "token"}, {"bind", "session", "token"}, {"ticket", "cloud"}},
		LabelSignature:     {{"hmac", "sha256", "sign"}, {"signature", "digest"}, {"md5", "nonce"}},
		LabelAddress:       {{"host", "url", "server"}, {"broker", "endpoint"}, {"domain", "ip"}},
		LabelNone:          {{"uptime", "seconds"}, {"retry", "count"}, {"percent", "progress"}},
	}
	for label, sets := range seedTokens {
		for _, toks := range sets {
			for i := 0; i < 10; i++ {
				padded := append([]string{}, toks...)
				padded = append(padded, []string{"sprintf", "strcat", "json", "buf"}[i%4])
				examples = append(examples, Example{Tokens: padded, Label: label})
			}
		}
	}
	model, valAcc, testAcc, err := TrainModel(examples, nn.Config{
		EmbedDim: 16, Filters: 8, MaxLen: 12, Epochs: 25, Seed: 9,
	})
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	if valAcc < 0.8 || testAcc < 0.8 {
		t.Errorf("accuracy val=%v test=%v, want >= 0.8", valAcc, testAcc)
	}
	mc := &ModelClassifier{Model: model}
	_ = mc
	label, _ := model.PredictLabel([]string{"nvram", "get", "mac", "sprintf"})
	if label != LabelDevIdentifier {
		t.Errorf("trained model predicts %q for mac tokens", label)
	}
}

func TestTrainModelRejectsBadInput(t *testing.T) {
	if _, _, _, err := TrainModel(nil, nn.Config{}); err == nil {
		t.Error("TrainModel accepted empty dataset")
	}
	bad := []Example{{Tokens: []string{"x"}, Label: "NotALabel"}}
	if _, _, _, err := TrainModel(bad, nn.Config{}); err == nil {
		t.Error("TrainModel accepted unknown label")
	}
}

// TestModelClassifierFingerprint: the fingerprint is a function of the
// model's weights. The same weights, also in another Model value, give the
// same key; one changed weight or another seed gives a different key.
func TestModelClassifierFingerprint(t *testing.T) {
	vocab := nn.BuildVocab([][]string{{"mac", "serial", "token", "nonce"}}, 1)
	labels := []string{"Identity", "Credential"}
	cfg := nn.Config{EmbedDim: 4, Filters: 3, Widths: []int{2}, MaxLen: 6, Seed: 5}
	m := nn.NewModel(cfg, vocab, labels)
	fp := (&ModelClassifier{Model: m}).Fingerprint()
	if again := (&ModelClassifier{Model: m}).Fingerprint(); again != fp {
		t.Fatalf("same model, two keys: %s and %s", fp, again)
	}
	clone, err := m.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	if got := (&ModelClassifier{Model: clone}).Fingerprint(); got != fp {
		t.Errorf("cloned weights key %s, want %s", got, fp)
	}
	clone.FCB[0] += 0.5
	if got := (&ModelClassifier{Model: clone}).Fingerprint(); got == fp {
		t.Error("a changed weight kept the key")
	}
	cfg.Seed = 6
	if got := (&ModelClassifier{Model: nn.NewModel(cfg, vocab, labels)}).Fingerprint(); got == fp {
		t.Error("a model initialized from another seed shares the key")
	}
	if got := (&ModelClassifier{}).Fingerprint(); got == fp {
		t.Error("a classifier without a model shares a trained model's key")
	}
}
