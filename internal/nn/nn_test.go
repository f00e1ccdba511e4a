package nn

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"cJSON_AddStringToObject", []string{"c", "json", "add", "string", "to", "object"}},
		{"deviceId", []string{"device", "id"}},
		{"&sn=%s", []string{"&", "sn", "=", "%", "s"}},
		{"MAC_ADDR", []string{"mac", "addr"}},
		{"nvram_get(mac)", []string{"nvram", "get", "mac"}},
		{"", nil},
		{"token123", []string{"token123"}},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestByteTokenizerMatchesTokenize pins the allocation-free byte form to
// Tokenize on crafted and random text: mixed case, digits, kept and
// dropped punctuation, non-ASCII bytes, and tokens longer than any earlier
// one (so the lower-casing buffer is reused and regrown).
func TestByteTokenizerMatchesTokenize(t *testing.T) {
	cases := []string{
		"", "cJSON_AddStringToObject", "&sn=%s", "MAC_ADDR",
		`CALL (Fun, nvram_get) (Local, R1, v401000_1) = (Cons, "deviceSecretKEY")`,
		"héllo wörld ÄÖÜ", "aVeryLongMixedCaseIdentifierThatKeepsGoingAndGoing x Y",
	}
	alphabet := []byte("aZm09_ =&?%/:{}\"\xc3\xa9;(),Q")
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	var z ByteTokenizer
	for _, text := range cases {
		var got []string
		z.Each([]byte(text), func(tok []byte) { got = append(got, string(tok)) })
		if want := Tokenize(text); !reflect.DeepEqual(got, want) {
			t.Errorf("ByteTokenizer(%q) = %q, Tokenize = %q", text, got, want)
		}
	}
}

func TestVocab(t *testing.T) {
	samples := [][]string{
		{"mac", "addr", "mac"},
		{"serial", "mac"},
		{"rare"},
	}
	v := BuildVocab(samples, 2)
	if _, ok := v.Index["mac"]; !ok {
		t.Error("frequent token missing from vocab")
	}
	if _, ok := v.Index["rare"]; ok {
		t.Error("rare token included despite minCount")
	}
	ids := v.IDs([]string{"mac", "rare", "serial"}, 5)
	if len(ids) != 5 {
		t.Fatalf("IDs length %d", len(ids))
	}
	if ids[0] == UnkID || ids[0] == PadID {
		t.Error("known token mapped to unk/pad")
	}
	if ids[1] != UnkID {
		t.Error("unknown token not mapped to unk")
	}
	if ids[3] != PadID || ids[4] != PadID {
		t.Error("short sequence not padded")
	}
}

// trainingSet builds a clearly separable 3-class dataset.
func trainingSet() ([]Sample, []string) {
	labels := []string{"Dev-Identifier", "Dev-Secret", "None"}
	patterns := map[int][][]string{
		0: {
			{"nvram", "get", "mac", "addr", "sprintf"},
			{"serial", "number", "device", "id", "strcat"},
			{"model", "id", "mac", "json", "add"},
			{"uuid", "device", "id", "nvram"},
		},
		1: {
			{"device", "secret", "key", "read", "file"},
			{"certificate", "pem", "private", "key"},
			{"hmac", "secret", "sign", "key"},
			{"passwd", "secret", "config", "read"},
		},
		2: {
			{"uptime", "seconds", "time", "stamp"},
			{"firmware", "progress", "percent"},
			{"log", "level", "debug", "count"},
			{"retry", "delay", "timeout", "ms"},
		},
	}
	var out []Sample
	for label, pats := range patterns {
		for _, p := range pats {
			// Replicate with suffix variation for a denser set.
			for i := 0; i < 6; i++ {
				toks := append([]string{}, p...)
				toks = append(toks, []string{"buf", "msg", "send", "cloud"}[i%4])
				out = append(out, Sample{Tokens: toks, Label: label})
			}
		}
	}
	return out, labels
}

func TestTrainLearnsSeparableData(t *testing.T) {
	samples, labels := trainingSet()
	var tokenized [][]string
	for _, s := range samples {
		tokenized = append(tokenized, s.Tokens)
	}
	v := BuildVocab(tokenized, 1)
	m := NewModel(Config{EmbedDim: 16, Filters: 8, MaxLen: 16, Epochs: 30, Seed: 3}, v, labels)
	res := m.Train(samples)
	if len(res.EpochLoss) != 30 {
		t.Fatalf("epochs run = %d", len(res.EpochLoss))
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Errorf("loss did not decrease: %v -> %v", res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1])
	}
	acc, confusion := m.Evaluate(samples)
	if acc < 0.95 {
		t.Errorf("training accuracy = %v, want >= 0.95 (confusion %v)", acc, confusion)
	}
}

func TestPredictLabel(t *testing.T) {
	samples, labels := trainingSet()
	var tokenized [][]string
	for _, s := range samples {
		tokenized = append(tokenized, s.Tokens)
	}
	v := BuildVocab(tokenized, 1)
	m := NewModel(Config{EmbedDim: 16, Filters: 8, MaxLen: 16, Epochs: 30, Seed: 3}, v, labels)
	m.Train(samples)
	label, conf := m.PredictLabel([]string{"nvram", "get", "mac", "addr"})
	if label != "Dev-Identifier" {
		t.Errorf("PredictLabel = %q (conf %v)", label, conf)
	}
	if conf <= 0 || conf > 1 {
		t.Errorf("confidence out of range: %v", conf)
	}
}

// TestGradientCheck verifies the analytical gradient of the FC weights and
// one conv weight against numerical differentiation.
func TestGradientCheck(t *testing.T) {
	labels := []string{"a", "b"}
	v := BuildVocab([][]string{{"x", "y", "z", "w"}}, 1)
	m := NewModel(Config{EmbedDim: 4, Filters: 3, Widths: []int{2, 3}, MaxLen: 6, Seed: 5}, v, labels)
	tokens := []string{"x", "y", "z", "w"}
	ids := m.Vocab.IDs(tokens, m.Cfg.MaxLen)
	label := 1

	g := newGrads(m)
	st := m.forward(ids)
	m.backward(st, label, g)

	lossAt := func() float64 {
		s := m.forward(ids)
		return -math.Log(math.Max(s.probs[label], 1e-12))
	}
	const eps = 1e-6
	check := func(name string, params, grads []float64, idxs []int) {
		for _, i := range idxs {
			orig := params[i]
			params[i] = orig + eps
			up := lossAt()
			params[i] = orig - eps
			down := lossAt()
			params[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-grads[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %v vs analytic %v", name, i, numeric, grads[i])
			}
		}
	}
	check("fcW", m.FCW, g.fcW, []int{0, 3, len(m.FCW) - 1})
	check("fcB", m.FCB, g.fcB, []int{0, 1})
	check("convW0", m.ConvW[0], g.convW[0], []int{0, 5, len(m.ConvW[0]) - 1})
	check("emb", m.Emb, g.emb, []int{ids[0]*m.Cfg.EmbedDim + 1})
}

func TestTrainingDeterminism(t *testing.T) {
	samples, labels := trainingSet()
	var tokenized [][]string
	for _, s := range samples {
		tokenized = append(tokenized, s.Tokens)
	}
	v := BuildVocab(tokenized, 1)
	cfg := Config{EmbedDim: 8, Filters: 4, MaxLen: 12, Epochs: 3, Seed: 11}
	m1 := NewModel(cfg, v, labels)
	m1.Train(samples)
	m2 := NewModel(cfg, v, labels)
	m2.Train(samples)
	for i := range m1.FCW {
		if m1.FCW[i] != m2.FCW[i] {
			t.Fatal("training is not deterministic for a fixed seed")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	samples, labels := trainingSet()
	var tokenized [][]string
	for _, s := range samples {
		tokenized = append(tokenized, s.Tokens)
	}
	v := BuildVocab(tokenized, 1)
	m := NewModel(Config{EmbedDim: 8, Filters: 4, MaxLen: 12, Epochs: 5, Seed: 2}, v, labels)
	m.Train(samples)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, s := range samples[:5] {
		p1, _ := m.Predict(s.Tokens)
		p2, _ := loaded.Predict(s.Tokens)
		if p1 != p2 {
			t.Error("loaded model predicts differently")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestCloneRoundTrip(t *testing.T) {
	samples, labels := trainingSet()
	var tokenized [][]string
	for _, s := range samples {
		tokenized = append(tokenized, s.Tokens)
	}
	v := BuildVocab(tokenized, 1)
	m := NewModel(Config{EmbedDim: 8, Filters: 4, MaxLen: 12, Epochs: 1, Seed: 2}, v, labels)
	m.Train(samples)

	c, err := m.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	// Mutating the clone must not touch the original.
	c.FCW[0] += 1
	if m.FCW[0] == c.FCW[0] {
		t.Error("Clone shares weight storage with the original")
	}
	c.FCW[0] -= 1
	for _, s := range samples[:3] {
		p1, _ := m.Predict(s.Tokens)
		p2, _ := c.Predict(s.Tokens)
		if p1 != p2 {
			t.Error("clone predicts differently")
		}
	}
}

func TestSplitDatasetRatios(t *testing.T) {
	samples := make([]Sample, 100)
	train, val, test := SplitDataset(samples, 1)
	if len(train) != 70 || len(val) != 20 || len(test) != 10 {
		t.Errorf("split = %d/%d/%d, want 70/20/10", len(train), len(val), len(test))
	}
	// All samples preserved.
	if len(train)+len(val)+len(test) != len(samples) {
		t.Error("split lost samples")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	v := BuildVocab(nil, 1)
	m := NewModel(Config{EmbedDim: 4, Filters: 2, MaxLen: 4}, v, []string{"a", "b"})
	acc, conf := m.Evaluate(nil)
	if acc != 0 || len(conf) != 2 {
		t.Errorf("Evaluate(nil) = %v, %v", acc, conf)
	}
}

func TestLabelIndex(t *testing.T) {
	v := BuildVocab(nil, 1)
	m := NewModel(Config{EmbedDim: 4, Filters: 2, MaxLen: 4}, v, []string{"a", "b"})
	if i, err := m.LabelIndex("b"); err != nil || i != 1 {
		t.Errorf("LabelIndex(b) = %d, %v", i, err)
	}
	if _, err := m.LabelIndex("zzz"); err == nil {
		t.Error("LabelIndex accepted unknown label")
	}
}
