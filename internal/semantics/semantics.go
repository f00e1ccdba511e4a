// Package semantics recovers message-field semantics from code slices
// (paper §IV-C): each slice's P-Code steps are enriched with symbol and
// constant information into the (Datatype, Name/Constant, NodeID) form,
// then classified into one of seven labels — the five access-control
// primitives of §II-B plus Address and None.
//
// Two classifiers are provided: a keyword-dictionary classifier (the
// labelling heuristic the paper used to bootstrap its dataset) and a
// learned TextCNN classifier (the substitute for the paper's BERT-TextCNN;
// see DESIGN.md).
package semantics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"firmres/internal/binfmt"
	"firmres/internal/cfg"
	"firmres/internal/dataflow"
	"firmres/internal/nn"
	"firmres/internal/obs"
	"firmres/internal/pcode"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// The seven output labels (§IV-C "Network Training").
const (
	LabelDevIdentifier = "Dev-Identifier"
	LabelDevSecret     = "Dev-Secret"
	LabelUserCred      = "User-Cred"
	LabelBindToken     = "Bind-Token"
	LabelSignature     = "Signature"
	LabelAddress       = "Address"
	LabelNone          = "None"
)

// Labels lists all classes in canonical order.
var Labels = []string{
	LabelDevIdentifier, LabelDevSecret, LabelUserCred,
	LabelBindToken, LabelSignature, LabelAddress, LabelNone,
}

// LabelIndex returns a label's position in Labels, or -1.
func LabelIndex(label string) int {
	for i, l := range Labels {
		if l == label {
			return i
		}
	}
	return -1
}

// appendHex writes lower-case unpadded hex, the %x rendering.
func appendHex(b *strings.Builder, x uint64) {
	b.WriteString(strconv.FormatUint(x, 16))
}

// appendVarnode renders one operand tuple of the §IV-C semantic-enriched
// representation — (Datatype, Name/Constant, NodeID) resolved against the
// binary's symbol information — into a builder. Renderings run
// once per op per image but that made fmt the hottest call under the
// classifier, so the formats are spelled out with strconv; output is
// byte-identical to the fmt.Sprintf originals (goldens pin this).
func appendVarnode(b *strings.Builder, bin *binfmt.Binary, fn *pcode.Function, v pcode.Varnode) {
	switch v.Space {
	case pcode.SpaceConst:
		addr := uint32(v.Offset)
		if bin.InData(addr) {
			if s, ok := bin.StringAt(addr); ok {
				b.WriteString("(Cons, ")
				b.WriteString(strconv.Quote(s))
				b.WriteString(")")
				return
			}
			if sym, ok := bin.DataSymAt(addr); ok && sym.Name != "" {
				b.WriteString("(DataPtr, ")
				b.WriteString(sym.Name)
				b.WriteString(", v")
				appendHex(b, uint64(sym.Addr))
				b.WriteString(")")
				return
			}
			b.WriteString("(DataPtr, data_")
			appendHex(b, uint64(addr))
			b.WriteString(", v")
			appendHex(b, uint64(addr))
			b.WriteString(")")
			return
		}
		b.WriteString("(Cons, 0x")
		appendHex(b, v.Offset)
		b.WriteString(")")
	case pcode.SpaceReg:
		r, _ := v.Reg()
		if lv, ok := bin.VarName(fn.Addr(), r); ok {
			kind := "Local"
			if lv.Kind == binfmt.VarParam {
				kind = "Param"
			}
			b.WriteString("(")
			b.WriteString(kind)
			b.WriteString(", ")
			b.WriteString(lv.Name)
		} else {
			b.WriteString("(Local, ")
			b.WriteString(r.String())
		}
		b.WriteString(", v")
		appendHex(b, uint64(fn.Addr()))
		b.WriteString("_")
		b.WriteString(strconv.Itoa(int(r)))
		b.WriteString(")")
	case pcode.SpaceUnique:
		b.WriteString("(Local, tmp_")
		appendHex(b, v.Offset)
		b.WriteString(", u")
		appendHex(b, v.Offset)
		b.WriteString(")")
	default:
		b.WriteString("(DataPtr, ram_")
		appendHex(b, v.Offset)
		b.WriteString(", r")
		appendHex(b, v.Offset)
		b.WriteString(")")
	}
}

// Enricher renders ops with decompiler-style argument folding: a callsite
// argument register whose reaching definition is a copy of a named variable
// or a constant is rendered as that variable or constant, the way Ghidra's
// decompiler presents callsites. Safe for concurrent use: the caches are
// mutex-guarded, and a cache miss is computed outside the lock (the
// underlying solutions are pure), so two goroutines may redundantly compute
// but never corrupt an entry.
type Enricher struct {
	bin *binfmt.Binary

	mu   sync.Mutex
	dus  map[uint32]*dataflow.DefUse
	ops  map[opKey]string // rendered-op cache: slices share construction steps
	toks map[opKey]opTok  // keyword-mask cache over the rendered ops (keywords.go)
}

type opKey struct {
	fnAddr uint32
	opIdx  int
}

// NewEnricher builds an enricher for one binary.
func NewEnricher(bin *binfmt.Binary) *Enricher {
	return &Enricher{
		bin:  bin,
		dus:  make(map[uint32]*dataflow.DefUse),
		ops:  make(map[opKey]string),
		toks: make(map[opKey]opTok),
	}
}

func (e *Enricher) du(fn *pcode.Function) *dataflow.DefUse {
	e.mu.Lock()
	d, ok := e.dus[fn.Addr()]
	e.mu.Unlock()
	if ok {
		return d
	}
	d = dataflow.New(fn, cfg.Build(fn))
	e.mu.Lock()
	if prev, ok := e.dus[fn.Addr()]; ok {
		d = prev // another goroutine won the race; share its solution
	} else {
		e.dus[fn.Addr()] = d
	}
	e.mu.Unlock()
	return d
}

// Op renders the op at opIdx within fn, folding callsite arguments.
// Renderings are cached: the slices of one message share most steps.
func (e *Enricher) Op(fn *pcode.Function, opIdx int) string {
	key := opKey{fn.Addr(), opIdx}
	e.mu.Lock()
	s, ok := e.ops[key]
	e.mu.Unlock()
	if ok {
		return s
	}
	s = e.renderOp(fn, opIdx)
	e.mu.Lock()
	e.ops[key] = s
	e.mu.Unlock()
	return s
}

func (e *Enricher) renderOp(fn *pcode.Function, opIdx int) string {
	op := &fn.Ops[opIdx]
	var b strings.Builder
	b.WriteString(op.Code.String())
	if op.Call != nil && op.Call.Name != "" {
		b.WriteString(" (Fun, ")
		b.WriteString(op.Call.Name)
		b.WriteString(")")
	}
	if op.HasOut {
		b.WriteString(" ")
		appendVarnode(&b, e.bin, fn, op.Output)
		b.WriteString(" =")
	}
	for i, in := range op.Inputs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(" ")
		appendVarnode(&b, e.bin, fn, e.foldOperand(fn, opIdx, in))
	}
	return b.String()
}

// foldOperand resolves an operand through single-copy reaching definitions
// to its named or constant source.
func (e *Enricher) foldOperand(fn *pcode.Function, opIdx int, v pcode.Varnode) pcode.Varnode {
	cur := v
	for hop := 0; hop < 8; hop++ {
		if cur.IsConst() {
			break
		}
		if r, ok := cur.Reg(); ok {
			if _, named := e.bin.VarName(fn.Addr(), r); named {
				break
			}
		}
		defs := e.du(fn).ReachingDefs(opIdx, cur)
		if len(defs) != 1 {
			break
		}
		def := &fn.Ops[defs[0]]
		if def.Code != pcode.COPY || len(def.Inputs) != 1 {
			break
		}
		cur = def.Inputs[0]
		opIdx = defs[0]
	}
	return cur
}

// Slice renders the full enriched code context of a slice: the key hint,
// the leaf source description, then every step op in order. This is the
// text fed to the classifiers. Field-local signal comes first because
// classifier inputs are truncated to a fixed token length and the key hint
// and source description are the most discriminative part of the context.
func (e *Enricher) Slice(s slices.Slice) string {
	var b strings.Builder
	if s.KeyHint != "" {
		fmt.Fprintf(&b, "KEY %s ; ", s.KeyHint)
	}
	if s.Leaf != nil {
		leaf := s.Leaf.Orig
		fmt.Fprintf(&b, "SRC %s", leaf.Kind)
		if leaf.Key != "" {
			fmt.Fprintf(&b, " %s", leaf.Key)
		}
		if leaf.Kind == taint.LeafString {
			fmt.Fprintf(&b, " %q", leaf.StrVal)
		}
		b.WriteString(" ; ")
	}
	for _, step := range s.Steps {
		if step.OpIdx < 0 || step.OpIdx >= len(step.Fn.Ops) {
			continue
		}
		b.WriteString(e.Op(step.Fn, step.OpIdx))
		b.WriteString(" ; ")
	}
	return b.String()
}

// EnrichSlice renders a slice's enriched context with a fresh enricher.
// Pipelines that enrich many slices of one binary should reuse an Enricher
// (its def-use solutions are cached per function).
func EnrichSlice(s slices.Slice) string {
	return NewEnricher(s.MFT.Prog.Bin).Slice(s)
}

// Tokens tokenizes the enriched representation of a slice.
func Tokens(s slices.Slice) []string {
	return nn.Tokenize(EnrichSlice(s))
}

// enricherPool caches one Enricher per binary for a classifier instance.
// Safe for concurrent use, so the classifiers embedding it satisfy the
// Classifier concurrency contract.
type enricherPool struct {
	mu    sync.Mutex
	cache map[*binfmt.Binary]*Enricher
}

func (p *enricherPool) forSlice(s slices.Slice) *Enricher {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cache == nil {
		p.cache = make(map[*binfmt.Binary]*Enricher)
	}
	bin := s.MFT.Prog.Bin
	e, ok := p.cache[bin]
	if !ok {
		e = NewEnricher(bin)
		p.cache[bin] = e
	}
	return e
}

// tokens tokenizes a slice reusing the pool's enricher.
func (p *enricherPool) tokens(s slices.Slice) []string {
	return nn.Tokenize(p.forSlice(s).Slice(s))
}

// Classifier assigns one of the seven labels to a slice. Implementations
// must be safe for concurrent Classify calls: the pipeline's semantics
// stage classifies messages on a worker pool. Both bundled classifiers
// (KeywordClassifier, ModelClassifier) satisfy this — their shared
// enrichment caches are mutex-guarded and TextCNN inference allocates its
// forward state per call.
type Classifier interface {
	Classify(s slices.Slice) (label string, confidence float64)
}

// Observed wraps a classifier so every Classify call bumps
// semantics_classified_total{label} in met. Classification itself is
// untouched; with a nil registry the wrapper is elided entirely, keeping
// un-instrumented runs on the original code path.
func Observed(c Classifier, met *obs.Metrics) Classifier {
	if met == nil {
		return c
	}
	return observed{c: c, met: met}
}

type observed struct {
	c   Classifier
	met *obs.Metrics
}

func (o observed) Classify(s slices.Slice) (string, float64) {
	label, conf := o.c.Classify(s)
	o.met.Counter("semantics_classified_total", "label", label).Inc()
	return label, conf
}

// KeywordClassifier is the dictionary heuristic of §V-C ("we define a
// simple dictionary for each primitive for regular matching of keywords").
// The zero value is ready to use; it caches enrichment state per binary.
type KeywordClassifier struct {
	pool enricherPool
}

var _ Classifier = (*KeywordClassifier)(nil)

// keywordDict maps each primitive to its token dictionary. Tokens are
// matched against the nn.Tokenize output of the enriched slice.
var keywordDict = map[string][]string{
	LabelDevIdentifier: {
		"mac", "serial", "sn", "deviceid", "devid", "uuid", "uid",
		"modelid", "productid", "imei", "did", "devname", "hardware",
	},
	LabelDevSecret: {
		"secret", "devicekey", "cert", "certificate", "private",
		"pem", "devkey", "psk",
	},
	LabelUserCred: {
		"username", "password", "passwd", "account", "login",
		"cloudusername", "cloudpassword", "email", "user",
	},
	LabelBindToken: {
		"token", "session", "bindtoken", "accesskey", "ticket",
		"accesstoken", "bind",
	},
	LabelSignature: {
		"sign", "signature", "hmac", "digest", "sha256", "md5",
		"nonce", "tmpsecret",
	},
	LabelAddress: {
		"host", "url", "server", "addr", "ip", "domain", "endpoint",
		"broker",
	},
}

// dictPriority resolves score ties: more specific primitives win.
var dictPriority = []string{
	LabelSignature, LabelDevSecret, LabelBindToken, LabelUserCred,
	LabelDevIdentifier, LabelAddress,
}

// Classify scores dictionary hits over the slice context. Field-local
// context (the key hint and the leaf source) is weighted above the shared
// slice context, because a multi-field construction step (one sprintf
// formatting several fields) bleeds every field's identifiers into every
// slice.
// It scores on the keyword bitmasks of keywords.go — per-op masks are
// cached in the enricher, so classifying a slice touches no slice text at
// all — which is score-for-score identical to running scoreInto over the
// tokenized Slice text (the equivalence test pins this).
func (c *KeywordClassifier) Classify(s slices.Slice) (string, float64) {
	var scores [numDictLabels]float64
	maskScores(scores[:], c.pool.forSlice(s).contextMask(s), 1)
	maskScores(scores[:], tokensMask(nn.Tokenize(s.KeyHint)), 3)
	if s.Leaf != nil {
		leaf := s.Leaf.Orig
		maskScores(scores[:], tokensMask(nn.Tokenize(leaf.Key)), 3)
		if leaf.Kind == taint.LeafString {
			maskScores(scores[:], tokensMask(nn.Tokenize(leaf.StrVal)), 3)
		}
	}
	// A key-derivation call on the construction path dominates the source
	// vocabulary: hmac(device_secret, ...) builds a Signature, not a
	// Dev-Secret (the learned model picks this up from the code context).
	if sliceHasCryptoStep(s) {
		scores[signatureIdx] += 5
	}
	return pickLabelScores(scores[:])
}

// sliceHasCryptoStep reports whether the slice's path runs through a
// signing/derivation call.
func sliceHasCryptoStep(s slices.Slice) bool {
	for _, step := range s.Steps {
		if step.OpIdx < 0 || step.OpIdx >= len(step.Fn.Ops) {
			continue
		}
		op := &step.Fn.Ops[step.OpIdx]
		if op.Call == nil {
			continue
		}
		switch op.Call.Name {
		case "hmac_sha256", "sha256", "md5", "aes_encrypt":
			return true
		}
	}
	return false
}

// ClassifyTokens applies the keyword dictionaries to a flat token sequence.
func ClassifyTokens(tokens []string) (string, float64) {
	scores := map[string]float64{}
	scoreInto(scores, tokens, 1)
	return pickLabel(scores)
}

// scoreInto adds weighted dictionary hits for a token sequence.
func scoreInto(scores map[string]float64, tokens []string, weight float64) {
	present := make(map[string]bool, len(tokens)*2)
	for _, t := range tokens {
		present[t] = true
	}
	// Compound tokens: "device"+"id" behaves like "deviceid".
	for i := 0; i+1 < len(tokens); i++ {
		present[tokens[i]+tokens[i+1]] = true
	}
	for _, label := range dictPriority {
		for _, kw := range keywordDict[label] {
			if present[kw] {
				scores[label] += weight
			}
		}
	}
}

// minEvidence is the score a label needs before it beats None: a single
// weight-1 hit from shared slice context (a neighbouring field's keyword
// bleeding through a multi-field construction step) is not enough.
const minEvidence = 2

// pickLabel selects the best-scoring label, resolving ties by specificity.
func pickLabel(scores map[string]float64) (string, float64) {
	best, bestScore := LabelNone, 0.0
	for _, label := range dictPriority {
		if scores[label] > bestScore {
			best, bestScore = label, scores[label]
		}
	}
	if bestScore < minEvidence {
		return LabelNone, 1
	}
	return best, bestScore / (bestScore + 1)
}

// ModelClassifier wraps a trained TextCNN.
type ModelClassifier struct {
	Model *nn.Model
	pool  enricherPool
}

var _ Classifier = (*ModelClassifier)(nil)

// Classify runs the model over the slice's enriched tokens.
func (c *ModelClassifier) Classify(s slices.Slice) (string, float64) {
	return c.Model.PredictLabel(c.pool.tokens(s))
}

// Fingerprint hashes the serialized model weights, so the analysis cache
// keys runs with different trained models apart even though both classify
// through the same type.
func (c *ModelClassifier) Fingerprint() string {
	h := sha256.New()
	if c.Model != nil {
		if err := c.Model.Save(h); err != nil {
			// An unserializable model cannot be fingerprinted; poison the
			// hash so it never collides with a healthy one.
			fmt.Fprintf(h, "save-error:%v", err)
		}
	}
	return "textcnn-" + hex.EncodeToString(h.Sum(nil))
}

// Example is one labelled slice for training.
type Example struct {
	Tokens []string
	Label  string
}

// TrainModel fits a TextCNN on labelled examples, returning the model and
// the validation/test accuracy under the paper's 7:2:1 split.
func TrainModel(examples []Example, cfg nn.Config) (*nn.Model, float64, float64, error) {
	if len(examples) == 0 {
		return nil, 0, 0, fmt.Errorf("semantics: no training examples")
	}
	samples := make([]nn.Sample, 0, len(examples))
	var tokenized [][]string
	for _, ex := range examples {
		idx := LabelIndex(ex.Label)
		if idx < 0 {
			return nil, 0, 0, fmt.Errorf("semantics: unknown label %q", ex.Label)
		}
		samples = append(samples, nn.Sample{Tokens: ex.Tokens, Label: idx})
		tokenized = append(tokenized, ex.Tokens)
	}
	train, val, test := nn.SplitDataset(samples, cfg.Seed+101)
	vocab := nn.BuildVocab(tokenized, 1)
	model := nn.NewModel(cfg, vocab, Labels)
	model.Train(train)
	valAcc, _ := model.Evaluate(val)
	testAcc, _ := model.Evaluate(test)
	return model, valAcc, testAcc, nil
}
