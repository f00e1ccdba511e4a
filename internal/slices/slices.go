// Package slices generates per-field code slices from Message Field Trees
// and implements the partial-message separation of paper §IV-C.
//
// Each root-to-leaf path of an MFT yields one slice: the ordered P-Code
// steps the field value flowed through, plus a key hint (a JSON key, a
// format-string segment like "&sn=", or a source key like an NVRAM name).
// Messages assembled with formatted-output functions are separated into
// per-field slices by splitting the format string at conversion verbs and
// clustering the resulting substrings by longest-common-subsequence
// similarity to identify delimiters (Listing 3).
package slices

import (
	"sort"
	"strconv"
	"strings"

	"firmres/internal/mft"
	"firmres/internal/pcode"
	"firmres/internal/taint"
)

// Step is one code-context element of a slice: a P-Code op within a
// function.
type Step struct {
	Fn    *pcode.Function
	OpIdx int
}

// Slice is the code context of one message field (§IV-C), the unit fed to
// the semantics classifier.
type Slice struct {
	MFT      *taint.MFT
	PathID   int
	PathHash uint64
	Leaf     *mft.SNode
	Steps    []Step
	KeyHint  string // associated key text: JSON key, format segment, or source key
}

// Generate computes the slices of a simplified (non-inverted) tree.
func Generate(tree *mft.Tree) []Slice {
	paths := tree.Paths()
	out := make([]Slice, 0, len(paths))
	for _, p := range paths {
		out = append(out, sliceOfPath(tree.Source, p))
	}
	return out
}

func sliceOfPath(m *taint.MFT, p mft.Path) Slice {
	s := Slice{MFT: m, PathID: p.ID, PathHash: p.Hash, Leaf: p.Leaf()}
	seen := map[Step]bool{}
	for _, n := range p.Nodes {
		if n.Orig.Fn == nil {
			continue
		}
		st := Step{Fn: n.Orig.Fn, OpIdx: n.Orig.OpIdx}
		if !seen[st] {
			seen[st] = true
			s.Steps = append(s.Steps, st)
		}
	}
	s.KeyHint = keyHint(p)
	return s
}

// keyHint recovers the key text associated with a field path, trying, in
// order: an explicit JSON key on the path, the format-string segment
// preceding the field's conversion verb, a neighbouring delimiter-looking
// string leaf (strcat-style assembly), and the field's source key.
func keyHint(p mft.Path) string {
	nodes := p.Nodes
	for i, n := range nodes {
		orig := n.Orig
		if orig.Key != "" && orig.Kind == taint.NodeCall {
			return orig.Key
		}
		if orig.Kind == taint.NodeCall && orig.Format != "" && i+1 < len(nodes) {
			if seg, ok := verbSegment(orig.Format, nodes[i+1].Orig); ok {
				return seg
			}
		}
	}
	// strcat-style: the delimiter text is the string leaf concatenated just
	// before the value. In the backward-ordered tree that is the *next*
	// sibling of the path's branch.
	if seg := neighborSegment(p); seg != "" {
		return seg
	}
	leaf := p.Leaf().Orig
	switch leaf.Kind {
	case taint.LeafNVRAM, taint.LeafConfig, taint.LeafEnv, taint.LeafFile:
		return leaf.Key
	}
	return ""
}

// verbSegment maps a NodeArg child ("argK") of a format call to the text
// segment preceding its conversion verb.
func verbSegment(format string, arg *taint.Node) (string, bool) {
	if arg.Kind != taint.NodeArg || !strings.HasPrefix(arg.ArgLabel, "arg") {
		return "", false
	}
	argIdx, err := strconv.Atoi(arg.ArgLabel[3:])
	if err != nil {
		return "", false
	}
	parts := SplitFormat(format)
	// Value arguments follow the format argument; verb i is filled by
	// argument fmtPos+1+i. We do not know fmtPos here, but the engine labels
	// sprintf args starting at the format itself, so the first value arg has
	// the lowest index among verbs. Recover by ranking.
	verbTexts := make([]string, 0, len(parts))
	for i, part := range parts {
		if part.Verb {
			text := ""
			if i > 0 && !parts[i-1].Verb {
				text = parts[i-1].Text
			}
			verbTexts = append(verbTexts, text)
		}
	}
	if len(verbTexts) == 0 {
		return "", false
	}
	// The engine emits NodeArg labels argF+1..argF+k for k verbs; the
	// smallest possible value-argument index is 2 (sprintf) or 3 (snprintf).
	for base := 2; base <= 3; base++ {
		pos := argIdx - base
		if pos >= 0 && pos < len(verbTexts) {
			return verbTexts[pos], true
		}
	}
	return "", false
}

// neighborSegment looks for a delimiter-looking string leaf adjacent to the
// path's top-level branch (strcat-style key/value adjacency).
func neighborSegment(p mft.Path) string {
	if len(p.Nodes) < 2 {
		return ""
	}
	// Find the deepest branching ancestor and this path's position in it.
	for d := len(p.Nodes) - 2; d >= 0; d-- {
		parent := p.Nodes[d]
		if len(parent.Children) < 2 {
			continue
		}
		child := p.Nodes[d+1]
		for i, c := range parent.Children {
			if c != child {
				continue
			}
			// Backward order: the preceding concatenated text is the next
			// sibling.
			if i+1 < len(parent.Children) {
				if s := delimiterText(parent.Children[i+1]); s != "" {
					return s
				}
			}
			if i > 0 {
				if s := delimiterText(parent.Children[i-1]); s != "" {
					return s
				}
			}
		}
		break
	}
	return ""
}

// delimiterText returns the string content of a leaf that looks like a
// key/delimiter segment ("&sn=", "uid:", "?m=camera&a=login&id=").
func delimiterText(n *mft.SNode) string {
	if n.Orig.Kind != taint.LeafString {
		return ""
	}
	s := n.Orig.StrVal
	if strings.HasSuffix(s, "=") || strings.HasSuffix(s, ":") || strings.HasSuffix(s, "&") {
		return s
	}
	return ""
}

// Part is one segment of a split format string.
type Part struct {
	Text string
	Verb bool // true for conversion verbs (%s, %d, %02x, ...)
}

// SplitFormat splits a printf-style format string into literal text and
// conversion-verb parts.
func SplitFormat(format string) []Part {
	var parts []Part
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, Part{Text: text.String()})
			text.Reset()
		}
	}
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			text.WriteByte(format[i])
			continue
		}
		if format[i+1] == '%' {
			text.WriteByte('%')
			i++
			continue
		}
		// Scan the verb: flags, width, precision, conversion.
		j := i + 1
		for j < len(format) && strings.ContainsRune("0123456789.+-# lh", rune(format[j])) {
			j++
		}
		if j < len(format) {
			j++ // conversion character
		}
		flush()
		parts = append(parts, Part{Text: format[i:j], Verb: true})
		i = j - 1
	}
	flush()
	return parts
}

// Similarity is the clustering metric of §IV-C:
//
//	Similarity(a, b) = 2·L_common / (L_a + L_b)
//
// where L_common is the length of the longest common subsequence.
func Similarity(a, b string) float64 {
	var rows []int
	return similarity(a, b, &rows)
}

// similarity is Similarity computing the LCS in *rows, which Cluster keeps
// across its pairwise comparisons.
func similarity(a, b string, rows *[]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return 2 * float64(lcs(a, b, rows)) / float64(len(a)+len(b))
}

// lcs computes the longest-common-subsequence length with two rolling rows
// carved from *rows, which is grown to fit and kept for the next call.
func lcs(a, b string, rows *[]int) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	n := len(b) + 1
	if cap(*rows) < 2*n {
		*rows = make([]int, 2*n)
	}
	buf := (*rows)[:2*n]
	clear(buf)
	prev, cur := buf[:n], buf[n:]
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Cluster groups strings by single-link agglomerative clustering: two
// strings join the same cluster when their similarity meets the threshold.
// Clusters are returned sorted by size (descending), members sorted
// lexicographically; the §IV-C delimiter identification reads the cluster
// count at thresholds 0.5/0.6/0.7.
func Cluster(items []string, threshold float64) [][]string {
	n := len(items)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	var rows []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if similarity(items[i], items[j], &rows) >= threshold {
				union(i, j)
			}
		}
	}
	groups := map[int][]string{}
	for i, s := range items {
		r := find(i)
		groups[r] = append(groups[r], s)
	}
	out := make([][]string, 0, len(groups))
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// FormatSubstrings collects the literal segments of every resolved format
// string in a set of MFTs — the input population for delimiter clustering.
// The boolean reports whether any format string was seen at all, so callers
// deciding whether the executable uses formatted-output assembly need not
// walk the trees a second time.
func FormatSubstrings(mfts []*taint.MFT) ([]string, bool) {
	var out []string
	sawFormat := false
	seen := map[string]bool{}
	for _, m := range mfts {
		if m.Root == nil {
			continue
		}
		m.Root.Walk(func(n *taint.Node) {
			if n.Format == "" {
				return
			}
			sawFormat = true
			for _, part := range SplitFormat(n.Format) {
				if !part.Verb && part.Text != "" && !seen[part.Text] {
					seen[part.Text] = true
					out = append(out, part.Text)
				}
			}
		})
	}
	sort.Strings(out)
	return out, sawFormat
}
