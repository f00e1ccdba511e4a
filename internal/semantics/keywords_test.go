package semantics

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/mft"
	"firmres/internal/nn"
	"firmres/internal/obs"
	"firmres/internal/pcode"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// classifyReference is the pre-bitmask keyword classifier: present-set
// scoring over the tokenized full slice text, rendered by a fresh Enricher
// that shares no cache with the classifier under test. The fast path in
// Classify must be score-for-score identical to this.
func classifyReference(s slices.Slice) (string, float64) {
	scores := map[string]float64{}
	scoreInto(scores, nn.Tokenize(NewEnricher(s.MFT.Facts).Slice(s)), 1)
	scoreInto(scores, nn.Tokenize(s.KeyHint), 3)
	if s.Leaf != nil {
		leaf := s.Leaf.Orig
		scoreInto(scores, nn.Tokenize(leaf.Key), 3)
		if leaf.Kind == taint.LeafString {
			scoreInto(scores, nn.Tokenize(leaf.StrVal), 3)
		}
	}
	if sliceHasCryptoStep(s) {
		scores[LabelSignature] += 5
	}
	return pickLabel(scores)
}

// buildCryptoSlices assembles a message whose secret field runs through
// hmac_sha256, exercising the crypto-step bonus and the Signature label.
func buildCryptoSlices(t *testing.T) []slices.Slice {
	t.Helper()
	return cryptoSlices(t, nil)
}

// cryptoSlices is buildCryptoSlices traced through a facts store that
// records its traffic into met (nil: none).
func cryptoSlices(t *testing.T, met *obs.Metrics) []slices.Slice {
	t.Helper()
	a := asm.New("t")
	buf := a.Bytes("msgbuf", make([]byte, 128))
	f := a.Func("sign_and_send", 0, true)
	f.LAStr(isa.R1, "device_secret")
	f.CallImport("config_read", 1)
	f.LI(isa.R2, 0)
	f.LI(isa.R3, 32)
	f.CallImport("hmac_sha256", 3)
	f.Mov(isa.R9, isa.R1)
	f.LAStr(isa.R1, "serial_no")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R10, isa.R1)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "sn=%s&sign=%s")
	f.Mov(isa.R3, isa.R10)
	f.Mov(isa.R4, isa.R9)
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
	mfts := taint.NewEngineFacts(facts.New(prog, facts.WithMetrics(met)), taint.Options{}).AnalyzeContext(context.Background(), 1)
	if len(mfts) == 0 {
		t.Fatal("no MFTs")
	}
	var out []slices.Slice
	for _, m := range mfts {
		out = append(out, slices.Generate(mft.Simplify(m))...)
	}
	return out
}

// TestClassifyMatchesReference pins the bitmask fast path to the
// present-set reference scorer on real slices, including the crypto-step
// bonus path.
func TestClassifyMatchesReference(t *testing.T) {
	all := append(buildSlices(t), buildCryptoSlices(t)...)
	if len(all) < 3 {
		t.Fatalf("only %d slices; want a richer corpus", len(all))
	}
	kc := &KeywordClassifier{}
	for i, s := range all {
		gotL, gotC := kc.Classify(s)
		wantL, wantC := classifyReference(s)
		if gotL != wantL || gotC != wantC {
			t.Errorf("slice %d: Classify = (%q, %v), reference = (%q, %v)",
				i, gotL, gotC, wantL, wantC)
		}
	}
}

// TestBoundClassifyConcurrent: workers racing over the same ops of one
// analysis, through the Enricher bound to its facts store, get the
// reference labels, and the store sees exactly the def-use requests of a
// sequential run, because the request is single-flight per function.
func TestBoundClassifyConcurrent(t *testing.T) {
	const key = `facts_requests_total{artifact="defuse"}`
	run := func(workers int) int64 {
		met := obs.NewMetrics()
		all := cryptoSlices(t, met)
		traced := met.Snapshot()[key]
		c := &KeywordClassifier{}
		got := make([][]string, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, s := range all {
					label, _ := c.Classify(s)
					got[w] = append(got[w], label)
				}
			}(w)
		}
		wg.Wait()
		requests := met.Snapshot()[key] - traced
		for w := range got {
			for i, s := range all {
				if want, _ := classifyReference(s); got[w][i] != want {
					t.Errorf("worker %d of %d, slice %d: label %q, reference %q", w, workers, i, got[w][i], want)
				}
			}
		}
		return requests
	}
	seq := run(1)
	if seq == 0 {
		t.Fatal("classification made no def-use request; the test exercises nothing")
	}
	if par := run(8); par != seq {
		t.Errorf("def-use requests: %d with 8 workers, %d with 1", par, seq)
	}
}

// TestContextMaskMatchesSliceTokens pins the stronger invariant under the
// fast path: the stitched per-segment mask equals the mask of tokenizing
// the full rendered slice text, compound keywords across segment
// boundaries included.
func TestContextMaskMatchesSliceTokens(t *testing.T) {
	all := append(buildSlices(t), buildCryptoSlices(t)...)
	rb := new(renderBuf)
	for i, s := range all {
		e := NewEnricher(s.MFT.Facts)
		got := e.contextMask(rb, s)
		want := referenceMask(nn.Tokenize(e.Slice(s)))
		if got != want {
			t.Errorf("slice %d: contextMask = %#x, tokensMask(full text) = %#x\ntext: %s",
				i, got, want, e.Slice(s))
		}
	}
}

// referenceMask is the keyword mask of a token stream by definition: the
// bit of every token and of every adjacent pair's concatenation.
func referenceMask(tokens []string) uint64 {
	var m uint64
	for i, t := range tokens {
		m |= kwBits[t]
		if i > 0 {
			m |= kwBits[tokens[i-1]+t]
		}
	}
	return m
}

// TestTokensMaskMatchesScoreInto cross-checks mask scoring against the
// present-set scorer on crafted and randomized token streams, covering
// unigram hits, compound pairs, duplicates, and misses. The streams are
// joined with spaces and summarized as text, which tokenizes back into
// the same stream.
func TestTokensMaskMatchesScoreInto(t *testing.T) {
	cases := [][]string{
		{},
		{"mac"},
		{"device", "id"},
		{"access", "key", "cloud", "password"},
		{"sha", "256", "tmp", "secret", "tmp", "secret"},
		{"x", "bind", "token", "y", "user"},
		{"serial", "serial", "serial"},
		{"no", "hits", "here"},
	}
	vocab := []string{
		"mac", "device", "id", "access", "key", "token", "bind", "sha",
		"256", "secret", "tmp", "user", "name", "pass", "wd", "x", "y",
		"serial", "sn", "uuid", "host", "url", "sign", "ature", "hmac",
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		toks := make([]string, rng.Intn(12))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		cases = append(cases, toks)
	}
	rb := new(renderBuf)
	for i, toks := range cases {
		want := map[string]float64{}
		scoreInto(want, toks, 1)
		mask := rb.textMask(strings.Join(toks, " "))
		for li, label := range dictPriority {
			got := float64(popcount(mask & labelMasks[label]))
			if got != want[label] {
				t.Errorf("case %d (%v): label %s (idx %d): mask score %v, scoreInto %v",
					i, toks, label, li, got, want[label])
			}
		}
	}
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// TestKeywordBitsCoverDictionary sanity-checks the init-built tables:
// every dictionary keyword has a bit, every bit is in its label's mask,
// and every split into a prefix and a suffix fragment maps back to the
// keyword's bit.
func TestKeywordBitsCoverDictionary(t *testing.T) {
	total := 0
	for _, label := range dictPriority {
		for _, kw := range keywordDict[label] {
			total++
			b, ok := kwBits[kw]
			if !ok || b == 0 {
				t.Fatalf("keyword %q has no bit", kw)
			}
			if labelMasks[label]&b == 0 {
				t.Errorf("keyword %q bit missing from label %s mask", kw, label)
			}
			for i := 1; i < len(kw); i++ {
				if pairBit(prefixIDs[kw[:i]], suffixIDs[kw[i:]])&b == 0 {
					t.Errorf("split (%q,%q) missing bit of %q", kw[:i], kw[i:], kw)
				}
			}
		}
	}
	if total > 64 {
		t.Fatalf("dictionary has %d keyword entries; bitmask design requires <= 64 distinct", total)
	}
	_ = strconv.Itoa(total)
}
