package semantics

import (
	"fmt"
	"math/bits"
	"sync"

	"firmres/internal/nn"
	"firmres/internal/pcode"
	"firmres/internal/slices"
)

// The keyword-dictionary classifier runs on every slice of every message,
// so its fast path never builds slice text. The 53 dictionary keywords fit
// in a uint64: "which keywords appear in this token stream" becomes a
// bitmask and scoring becomes popcount against a per-label mask. Each op a
// slice steps through is rendered once into a pooled buffer, tokenized
// there by nn.ByteTokenizer (the tokenizer behind nn.Tokenize), and folded
// into an opTok summary kept in the Enricher's dense per-function array;
// the text itself is dropped. Summaries therefore come from exactly the
// text Slice emits.
//
// Equivalence with the reference present-set scorer (scoreInto/pickLabel,
// kept for ClassifyTokens and as the oracle in tests) rests on two facts
// about nn.Tokenize:
//   - ';' and ' ' flush the current token without emitting one, so
//     tokenizing the " ; "-joined slice text yields exactly the
//     concatenation of the per-segment token streams;
//   - compound (adjacent-pair) keywords can therefore only form inside a
//     segment — summarized per op — or across a segment boundary, which the
//     classifier stitches from the keyword fragments each summary records
//     at its ends.

// kwBits maps each dictionary keyword to its bit; labelMasks maps each
// label to the OR of its keywords' bits.
//
// Compounds: every proper prefix and every proper suffix of a keyword has
// a fragment ID (0 means "not a fragment"), and pairBits maps
// prefixID<<16|suffixID to the bit of the keyword the two fragments join
// into. An adjacent token pair (a, b) with a+b == keyword is then found by
// integer lookups without concatenating, and an op summary records its end
// tokens as two small IDs.
var (
	kwBits     map[string]uint64
	labelMasks map[string]uint64

	prefixIDs, suffixIDs map[string]uint16
	pairBits             map[uint32]uint64

	// Lookup prefilters: most tokens in rendered slices are hex node ids
	// and register names that can never be keywords, so a byte-indexed
	// first-letter test and a length bound skip the map hash for them.
	// A keyword prefix starts with its keyword's first byte, so the same
	// table filters prefix lookups.
	kwFirstByte [256]bool
	kwMinLen    int
	kwMaxLen    int
)

// numDictLabels sizes the dense score array; signatureIdx is Signature's
// slot in dictPriority (the crypto-step bonus lands there). Both are
// asserted against dictPriority at init.
const (
	numDictLabels = 6
	signatureIdx  = 0
)

func init() {
	if len(dictPriority) != numDictLabels || dictPriority[signatureIdx] != LabelSignature {
		panic("semantics: dictPriority out of sync with numDictLabels/signatureIdx")
	}
	kwBits = make(map[string]uint64)
	labelMasks = make(map[string]uint64)
	prefixIDs = make(map[string]uint16)
	suffixIDs = make(map[string]uint16)
	pairBits = make(map[uint32]uint64)
	fragment := func(ids map[string]uint16, s string) uint32 {
		id, ok := ids[s]
		if !ok {
			id = uint16(len(ids) + 1)
			ids[s] = id
		}
		return uint32(id)
	}
	next := 0
	kwMinLen = 1 << 30
	for _, label := range dictPriority {
		for _, kw := range keywordDict[label] {
			b, seen := kwBits[kw]
			if !seen {
				if next >= 64 {
					panic(fmt.Sprintf("semantics: keyword dictionary exceeds 64 distinct keywords at %q", kw))
				}
				b = uint64(1) << next
				next++
				kwBits[kw] = b
				kwFirstByte[kw[0]] = true
				kwMinLen = min(kwMinLen, len(kw))
				kwMaxLen = max(kwMaxLen, len(kw))
				for i := 1; i < len(kw); i++ {
					pairBits[fragment(prefixIDs, kw[:i])<<16|fragment(suffixIDs, kw[i:])] |= b
				}
			}
			labelMasks[label] |= b
		}
	}
	if len(prefixIDs) > 0xffff || len(suffixIDs) > 0xffff {
		panic("semantics: keyword fragments exceed 16-bit IDs")
	}
}

// kwLookup is kwBits behind the prefilters.
func kwLookup(t []byte) uint64 {
	if len(t) < kwMinLen || len(t) > kwMaxLen || !kwFirstByte[t[0]] {
		return 0
	}
	return kwBits[string(t)]
}

// prefixID is the fragment ID of t as a keyword prefix, 0 if it is none.
func prefixID(t []byte) uint16 {
	if len(t) >= kwMaxLen || !kwFirstByte[t[0]] {
		return 0
	}
	return prefixIDs[string(t)]
}

// suffixID is the fragment ID of t as a keyword suffix, 0 if it is none.
func suffixID(t []byte) uint16 {
	if len(t) >= kwMaxLen {
		return 0
	}
	return suffixIDs[string(t)]
}

// pairBit is the bit of the keyword a prefix and a suffix fragment join
// into, 0 if they join into none.
func pairBit(prefix, suffix uint16) uint64 {
	if prefix == 0 || suffix == 0 {
		return 0
	}
	return pairBits[uint32(prefix)<<16|uint32(suffix)]
}

// opTok is the keyword summary of one rendered segment: its keyword mask,
// plus the fragment IDs of its first token (as a suffix) and of its last
// token (as a prefix) for stitching compounds across segment boundaries.
type opTok struct {
	mask   uint64
	first  uint16 // suffixID of the first token
	last   uint16 // prefixID of the last token
	tokens bool   // the segment has at least one token
	done   bool   // computed: the Enricher's per-op arrays start zeroed
}

// stitch accumulates segment summaries in text order, adding the
// compounds that form across segment boundaries. A segment with no tokens
// is invisible to its neighbours, as in the joined text.
type stitch struct {
	mask uint64
	last uint16
}

func (st *stitch) add(t opTok) {
	if !t.tokens {
		return
	}
	st.mask |= t.mask | pairBit(st.last, t.first)
	st.last = t.last
}

// renderBuf is the scratch a classification renders and tokenizes
// segments in. Pooled, so summarizing an op allocates nothing once the
// buffers have grown.
type renderBuf struct {
	text []byte
	z    nn.ByteTokenizer
}

var renderPool = sync.Pool{New: func() any { return new(renderBuf) }}

// summarize folds one segment, rendered into rb.text (text is the
// possibly grown buffer, which rb keeps), into its summary: unigram hits
// plus adjacent-pair compounds, exactly the present set scoreInto builds.
func (rb *renderBuf) summarize(text []byte) opTok {
	rb.text = text
	t := opTok{done: true}
	rb.z.Each(text, func(tok []byte) {
		t.mask |= kwLookup(tok)
		if !t.tokens {
			t.first, t.tokens = suffixID(tok), true
		} else if t.last != 0 {
			t.mask |= pairBit(t.last, suffixID(tok))
		}
		t.last = prefixID(tok)
	})
	return t
}

// textMask is the keyword mask of a string tokenized on its own.
func (rb *renderBuf) textMask(s string) uint64 {
	return rb.summarize(append(rb.text[:0], s...)).mask
}

// opTokens returns the summary of the op at opIdx, rendering it into rb
// on first use. Two goroutines missing the same op both compute the same
// summary; the def-use request behind it is single-flight per function.
func (e *Enricher) opTokens(rb *renderBuf, fn *pcode.Function, opIdx int) opTok {
	e.mu.Lock()
	fe := e.function(fn)
	t := fe.toks[opIdx]
	e.mu.Unlock()
	if t.done {
		return t
	}
	t = rb.summarize(e.appendOp(rb.text[:0], fn, opIdx))
	e.mu.Lock()
	fe.toks[opIdx] = t
	e.mu.Unlock()
	return t
}

// contextMask computes the keyword bitmask of the full enriched slice
// text (what tokenizing Slice(s) and folding would produce) without
// building that text: op summaries come from the per-function arrays, and
// only the short KEY/SRC header segments are rendered per call.
func (e *Enricher) contextMask(rb *renderBuf, s slices.Slice) uint64 {
	var st stitch
	if s.KeyHint != "" {
		st.add(rb.summarize(appendKeySegment(rb.text[:0], s)))
	}
	if s.Leaf != nil {
		st.add(rb.summarize(appendSourceSegment(rb.text[:0], s)))
	}
	for _, step := range s.Steps {
		if step.OpIdx < 0 || step.OpIdx >= len(step.Fn.Ops) {
			continue
		}
		st.add(e.opTokens(rb, step.Fn, step.OpIdx))
	}
	return st.mask
}

// maskScores accumulates popcount scoring of one mask at a weight.
func maskScores(scores []float64, mask uint64, weight float64) {
	for i, label := range dictPriority {
		scores[i] += float64(bits.OnesCount64(mask&labelMasks[label])) * weight
	}
}

// pickLabelScores is pickLabel over the dense dictPriority-indexed score
// array the fast path fills.
func pickLabelScores(scores []float64) (string, float64) {
	best, bestScore := LabelNone, 0.0
	for i, label := range dictPriority {
		if scores[i] > bestScore {
			best, bestScore = label, scores[i]
		}
	}
	if bestScore < minEvidence {
		return LabelNone, 1
	}
	return best, bestScore / (bestScore + 1)
}
