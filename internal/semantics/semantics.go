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
	"sync"

	"firmres/internal/binfmt"
	"firmres/internal/dataflow"
	"firmres/internal/externs"
	"firmres/internal/facts"
	"firmres/internal/nn"
	"firmres/internal/obs"
	"firmres/internal/parallel"
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

// CheckLabels reports the first of a model's class names that is not one
// of Labels: the pipeline and its metrics know no other class.
func CheckLabels(classes []string) error {
	for _, c := range classes {
		if LabelIndex(c) < 0 {
			return fmt.Errorf("semantics: class %q is not a semantics label (have %v)", c, Labels)
		}
	}
	return nil
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

// appendVarnode appends one operand tuple of the §IV-C semantic-enriched
// representation — (Datatype, Name/Constant, NodeID) resolved against the
// binary's symbol information — to b. Ops render into a reused buffer,
// so the formats are spelled out with strconv appends instead of fmt;
// output is byte-identical to the fmt.Sprintf originals (goldens pin
// this).
func appendVarnode(b []byte, bin *binfmt.Binary, fn *pcode.Function, v pcode.Varnode) []byte {
	switch v.Space {
	case pcode.SpaceConst:
		addr := uint32(v.Offset)
		if bin.InData(addr) {
			if s, ok := bin.StringAt(addr); ok {
				b = append(b, "(Cons, "...)
				b = strconv.AppendQuote(b, s)
				return append(b, ')')
			}
			if sym, ok := bin.DataSymAt(addr); ok && sym.Name != "" {
				b = append(b, "(DataPtr, "...)
				b = append(b, sym.Name...)
				b = append(b, ", v"...)
				b = strconv.AppendUint(b, uint64(sym.Addr), 16)
				return append(b, ')')
			}
			b = append(b, "(DataPtr, data_"...)
			b = strconv.AppendUint(b, uint64(addr), 16)
			b = append(b, ", v"...)
			b = strconv.AppendUint(b, uint64(addr), 16)
			return append(b, ')')
		}
		b = append(b, "(Cons, 0x"...)
		b = strconv.AppendUint(b, v.Offset, 16)
		return append(b, ')')
	case pcode.SpaceReg:
		r, _ := v.Reg()
		if lv, ok := bin.VarName(fn.Addr(), r); ok {
			if lv.Kind == binfmt.VarParam {
				b = append(b, "(Param, "...)
			} else {
				b = append(b, "(Local, "...)
			}
			b = append(b, lv.Name...)
		} else {
			b = append(b, "(Local, "...)
			b = append(b, r.String()...)
		}
		b = append(b, ", v"...)
		b = strconv.AppendUint(b, uint64(fn.Addr()), 16)
		b = append(b, '_')
		b = strconv.AppendInt(b, int64(r), 10)
		return append(b, ')')
	case pcode.SpaceUnique:
		b = append(b, "(Local, tmp_"...)
		b = strconv.AppendUint(b, v.Offset, 16)
		b = append(b, ", u"...)
		b = strconv.AppendUint(b, v.Offset, 16)
		return append(b, ')')
	default:
		b = append(b, "(DataPtr, ram_"...)
		b = strconv.AppendUint(b, v.Offset, 16)
		b = append(b, ", r"...)
		b = strconv.AppendUint(b, v.Offset, 16)
		return append(b, ')')
	}
}

// Enricher renders the ops of one executable with decompiler-style
// argument folding: a callsite argument register whose reaching
// definition is a copy of a named variable or a constant is rendered as
// that variable or constant, the way Ghidra's decompiler presents
// callsites.
//
// An Enricher folds through the def-use solutions of the facts store it
// was made over, the store its MFTs were traced through, and caches one
// keyword summary per rendered op (keywords.go); op text is rendered on
// demand. Classification enriches through the store's own Enricher,
// which the store keeps as its scratch: a set recycles it, per-op
// summaries and render buffers included, with its program, so it lives
// exactly as long as the program it renders. Safe for concurrent use.
type Enricher struct {
	fx *facts.Program

	funcs []funcEnrichment // indexed by pcode.Function.Index

	mu   sync.Mutex
	toks []opTok                       // one summary per op of the program, function by function; guarded by mu
	bufs parallel.FreeList[*renderBuf] // render buffers no classification holds
}

// funcEnrichment is an Enricher's state for one function.
type funcEnrichment struct {
	fn *pcode.Function
	// duOnce makes the def-use request to the facts store single-flight,
	// so the store's request counters do not depend on how classification
	// was scheduled.
	duOnce sync.Once
	du     *dataflow.DefUse
	toks   []opTok // the function's ops' summaries, carved from Enricher.toks
}

// NewEnricher builds an enricher over the facts store of one executable,
// in storage of its own that shares no summary with the store's Enricher.
func NewEnricher(fx *facts.Program) *Enricher {
	e := new(Enricher)
	e.reset(fx)
	return e
}

// enricherOf returns the Enricher fx keeps as its scratch.
func enricherOf(fx *facts.Program) *Enricher {
	return fx.Scratch(facts.SlotSemantics, readyEnricher).(*Enricher)
}

// readyEnricher readies the Enricher a set kept from an earlier program,
// or a new one, for the program of fx.
func readyEnricher(fx *facts.Program, old facts.Scratch) facts.Scratch {
	e, _ := old.(*Enricher)
	if e == nil {
		e = new(Enricher)
	}
	e.reset(fx)
	return e
}

// reset readies e for the program of fx, reusing the arrays and render
// buffers it holds: one state per function and one empty summary per op.
func (e *Enricher) reset(fx *facts.Program) {
	funcs := fx.Prog().Funcs
	e.fx = fx
	e.funcs = resize(e.funcs, len(funcs))
	e.toks = resize(e.toks, fx.Ops())
	off := 0
	for i, fn := range funcs {
		end := off + len(fn.Ops)
		e.funcs[i].fn, e.funcs[i].toks = fn, e.toks[off:end:end]
		off = end
	}
}

// resize returns s with length n and every element zeroed, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Recycle implements facts.Scratch: the next program readies the
// Enricher afresh. With scrub it overwrites every summary with a
// plausible-looking wrong one, so a reader that still holds a released
// set's Enricher classifies wrongly.
func (e *Enricher) Recycle(scrub bool) {
	if !scrub {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.toks {
		e.toks[i] = opTok{mask: ^uint64(0), first: 1, last: 1, tokens: true, done: true}
	}
}

// function returns fn's state. fn must be a function of the Enricher's
// program; any other is a bug, and function panics.
func (e *Enricher) function(fn *pcode.Function) *funcEnrichment {
	if i := fn.Index(); uint(i) < uint(len(e.funcs)) && e.funcs[i].fn == fn {
		return &e.funcs[i]
	}
	panic("semantics: function " + fn.Name() + " is not of the enricher's program")
}

// defUse returns the reaching-definitions solution of fe's function from
// the facts store.
func (e *Enricher) defUse(fe *funcEnrichment) *dataflow.DefUse {
	fe.duOnce.Do(func() { fe.du = e.fx.Func(fe.fn).DefUse() })
	return fe.du
}

// Op renders the op at opIdx within fn, folding callsite arguments.
func (e *Enricher) Op(fn *pcode.Function, opIdx int) string {
	return string(e.appendOp(nil, fn, opIdx))
}

// appendOp appends the rendering of the op at opIdx within fn to b.
func (e *Enricher) appendOp(b []byte, fn *pcode.Function, opIdx int) []byte {
	fe := e.function(fn)
	bin := e.fx.Prog().Bin
	op := &fn.Ops[opIdx]
	b = append(b, op.Code.String()...)
	if op.Call != nil && op.Call.Name != "" {
		b = append(b, " (Fun, "...)
		b = append(b, op.Call.Name...)
		b = append(b, ')')
	}
	if op.HasOut {
		b = append(b, ' ')
		b = appendVarnode(b, bin, fn, op.Output)
		b = append(b, " ="...)
	}
	for i, in := range op.Inputs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, ' ')
		b = appendVarnode(b, bin, fn, e.foldOperand(fe, opIdx, in))
	}
	return b
}

// foldOperand resolves an operand through single-copy reaching definitions
// to its named or constant source.
func (e *Enricher) foldOperand(fe *funcEnrichment, opIdx int, v pcode.Varnode) pcode.Varnode {
	fn := fe.fn
	cur := v
	for hop := 0; hop < 8; hop++ {
		if cur.IsConst() {
			break
		}
		if r, ok := cur.Reg(); ok {
			if _, named := e.fx.Prog().Bin.VarName(fn.Addr(), r); named {
				break
			}
		}
		var buf [4]int
		defs := e.defUse(fe).AppendReachingDefs(buf[:0], opIdx, cur)
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

// appendKeySegment appends the key-hint segment of a slice's rendering:
// nothing when the slice has no key hint.
func appendKeySegment(b []byte, s slices.Slice) []byte {
	if s.KeyHint == "" {
		return b
	}
	b = append(b, "KEY "...)
	return append(b, s.KeyHint...)
}

// appendSourceSegment appends the leaf-source segment of a slice's
// rendering: nothing when the slice has no leaf.
func appendSourceSegment(b []byte, s slices.Slice) []byte {
	if s.Leaf == nil {
		return b
	}
	leaf := s.Leaf.Orig
	b = append(b, "SRC "...)
	b = append(b, leaf.Kind.String()...)
	if leaf.Key != "" {
		b = append(b, ' ')
		b = append(b, leaf.Key...)
	}
	if leaf.Kind == taint.LeafString {
		b = append(b, ' ')
		b = strconv.AppendQuote(b, leaf.StrVal)
	}
	return b
}

// Slice renders the full enriched code context of a slice: the key hint,
// the leaf source description, then every step op in order. This is the
// text fed to the classifiers. Field-local signal comes first because
// classifier inputs are truncated to a fixed token length and the key hint
// and source description are the most discriminative part of the context.
func (e *Enricher) Slice(s slices.Slice) string {
	var b []byte
	if s.KeyHint != "" {
		b = append(appendKeySegment(b, s), " ; "...)
	}
	if s.Leaf != nil {
		b = append(appendSourceSegment(b, s), " ; "...)
	}
	for _, step := range s.Steps {
		if step.OpIdx < 0 || step.OpIdx >= len(step.Fn.Ops) {
			continue
		}
		b = append(e.appendOp(b, step.Fn, step.OpIdx), " ; "...)
	}
	return string(b)
}

// EnrichSlice renders a slice's enriched context through the Enricher of
// the facts store its MFT was traced through.
func EnrichSlice(s slices.Slice) string {
	return enricherOf(s.MFT.Facts).Slice(s)
}

// Tokens tokenizes the enriched representation of a slice.
func Tokens(s slices.Slice) []string {
	return nn.Tokenize(EnrichSlice(s))
}

// Classifier assigns one of the seven labels to a slice. Implementations
// must be safe for concurrent Classify calls: the pipeline's semantics
// stage classifies messages on a worker pool. Both bundled classifiers
// (KeywordClassifier, ModelClassifier) satisfy this — they keep no state,
// the Enricher of a slice's facts store is safe for concurrent use, and
// TextCNN inference allocates its forward state per call.
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
// The zero value is ready to use. It keeps nothing: every slice is
// classified through the Enricher of the facts store it came from.
type KeywordClassifier struct{}

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
// It scores on the keyword bitmasks of keywords.go — per-op summaries are
// cached in the enricher, so classifying a slice builds no slice text at
// all — which is score-for-score identical to running scoreInto over the
// tokenized Slice text (the equivalence test pins this).
func (c *KeywordClassifier) Classify(s slices.Slice) (string, float64) {
	return classifyWith(enricherOf(s.MFT.Facts), s)
}

// classifyWith is Classify through e, in a render buffer taken from e.
func classifyWith(e *Enricher, s slices.Slice) (string, float64) {
	rb, ok := e.bufs.Get()
	if !ok {
		rb = new(renderBuf)
	}
	defer e.bufs.Put(rb)
	var scores [numDictLabels]float64
	maskScores(scores[:], e.contextMask(rb, s), 1)
	maskScores(scores[:], rb.textMask(s.KeyHint), 3)
	if s.Leaf != nil {
		leaf := s.Leaf.Orig
		maskScores(scores[:], rb.textMask(leaf.Key), 3)
		if leaf.Kind == taint.LeafString {
			maskScores(scores[:], rb.textMask(leaf.StrVal), 3)
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
		if c := step.Fn.Ops[step.OpIdx].Call; c != nil && c.Sig != nil && c.Sig.Role == externs.RoleCrypto {
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

// ModelClassifier wraps a trained TextCNN. Like KeywordClassifier, it
// enriches through the Enricher of each slice's facts store.
type ModelClassifier struct {
	Model *nn.Model
}

var _ Classifier = (*ModelClassifier)(nil)

// Classify runs the model over the slice's enriched tokens.
func (c *ModelClassifier) Classify(s slices.Slice) (string, float64) {
	return c.Model.PredictLabel(nn.Tokenize(EnrichSlice(s)))
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
