// Package nn implements a pure-Go text classifier for field-semantics
// recovery: token embeddings, parallel convolutions of widths {2,3,4,5}
// (matching the paper's TextCNN kernel sizes), max-over-time pooling, and a
// softmax layer, trained with Adam.
//
// It substitutes for the paper's BERT-TextCNN (§IV-C): the interface is the
// same — an enriched code slice in, one of seven primitive labels out — and
// the convolutional local-feature bias matches the TextCNN half of the
// original. See DESIGN.md for the substitution rationale.
package nn

import "strings"

// Tokenize splits enriched-slice text into classifier tokens: identifiers
// are split on underscores, punctuation, and camelCase boundaries, and
// lower-cased, so "cJSON_AddStringToObject" yields
// ["c", "json", "add", "string", "to", "object"].
func Tokenize(text string) []string {
	return TokenizeAppend(nil, text)
}

// TokenizeAppend is Tokenize appending into dst, reusing its capacity —
// the allocation-lean form for hot loops that tokenize many short
// renderings. Tokens that are already lower-case in text are returned as
// substrings aliasing it (strings are immutable, so sharing is safe);
// only mixed-case tokens allocate for their lower-cased copy.
func TokenizeAppend(dst []string, text string) []string {
	for i := 0; ; {
		start, end, upper, ok := nextToken(text, i)
		if !ok {
			return dst
		}
		tok := text[start:end]
		if upper {
			tok = strings.ToLower(tok)
		}
		dst = append(dst, tok)
		i = end
	}
}

// ByteTokenizer tokenizes byte text exactly as TokenizeAppend tokenizes
// the same text as a string, without allocating: tokens are handed out as
// byte slices, lower-cased into a buffer the tokenizer reuses across
// calls. Not safe for concurrent use.
type ByteTokenizer struct {
	lower []byte
}

// Each calls fn with every token of text in order. A token aliases text or
// the tokenizer's buffer, so it is only valid during the call.
func (z *ByteTokenizer) Each(text []byte, fn func(tok []byte)) {
	for i := 0; ; {
		start, end, upper, ok := nextToken(text, i)
		if !ok {
			return
		}
		tok := text[start:end]
		if upper {
			// Tokens are ASCII letters and digits (every other byte
			// separates), so byte-wise lower-casing equals strings.ToLower.
			z.lower = append(z.lower[:0], tok...)
			for j, c := range z.lower {
				if c >= 'A' && c <= 'Z' {
					z.lower[j] = c + 'a' - 'A'
				}
			}
			tok = z.lower
		}
		fn(tok)
		i = end
	}
}

// punct marks the punctuation bytes kept as one-byte tokens.
var punct = func() (t [256]bool) {
	for _, c := range []byte{'=', '&', '?', '%', '/', ':', '{', '}', '"'} {
		t[c] = true
	}
	return
}()

// nextToken is the one tokenizer behind TokenizeAppend and ByteTokenizer:
// it finds the first token of text at or after offset i and returns its
// byte range [start, end) and whether it holds upper-case letters to
// lower; ok is false when no token is left. Scanning resumes at end.
//
// A token is a run of ASCII letters and digits, split where an upper-case
// letter follows a lower-case one (camelCase); a kept punctuation mark is
// a token of its own; every other byte separates. The scan is byte-wise
// but exactly matches the rune-wise definition: every byte of a non-ASCII
// rune falls into the separator class, just as the whole rune does.
func nextToken[T string | []byte](text T, i int) (start, end int, upper, ok bool) {
	for ; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			break
		}
		if punct[c] {
			return i, i + 1, false, true
		}
	}
	if i == len(text) {
		return 0, 0, false, false
	}
	start = i
	prevLower := false
	for ; i < len(text); i++ {
		switch c := text[i]; {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevLower = c >= 'a' && c <= 'z'
		case c >= 'A' && c <= 'Z':
			if prevLower {
				return start, i, upper, true
			}
			upper = true
		default:
			return start, i, upper, true
		}
	}
	return start, i, upper, true
}

// Vocab maps tokens to embedding indexes. Index 0 is padding, index 1 is
// the unknown token.
type Vocab struct {
	Index map[string]int
	Words []string
}

// Reserved vocabulary slots.
const (
	PadID = 0
	UnkID = 1
)

// BuildVocab constructs a vocabulary from tokenized samples, keeping tokens
// with at least minCount occurrences.
func BuildVocab(samples [][]string, minCount int) *Vocab {
	counts := map[string]int{}
	var order []string
	for _, toks := range samples {
		for _, tok := range toks {
			if counts[tok] == 0 {
				order = append(order, tok)
			}
			counts[tok]++
		}
	}
	v := &Vocab{Index: map[string]int{"<pad>": PadID, "<unk>": UnkID},
		Words: []string{"<pad>", "<unk>"}}
	for _, tok := range order {
		if counts[tok] >= minCount {
			v.Index[tok] = len(v.Words)
			v.Words = append(v.Words, tok)
		}
	}
	return v
}

// Size returns the vocabulary size including reserved slots.
func (v *Vocab) Size() int { return len(v.Words) }

// IDs maps tokens to indexes, truncating/padding to maxLen.
func (v *Vocab) IDs(tokens []string, maxLen int) []int {
	out := make([]int, maxLen)
	for i := 0; i < maxLen; i++ {
		if i < len(tokens) {
			if id, ok := v.Index[tokens[i]]; ok {
				out[i] = id
			} else {
				out[i] = UnkID
			}
		} else {
			out[i] = PadID
		}
	}
	return out
}
