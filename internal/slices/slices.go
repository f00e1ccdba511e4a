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
	"slices"
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

// Generate computes the slices of a simplified (non-inverted) tree. The
// list and every slice's steps are carved, in one piece each, from the
// store the tree's MFT was traced through (store.go), so they live as
// long as that store's set.
func Generate(tree *mft.Tree) []Slice {
	paths := tree.Paths()
	if len(paths) == 0 {
		return nil
	}
	n := 0
	for _, p := range paths {
		n += distinctSteps(nil, p)
	}
	st := storeOf(tree.Source)
	out, steps := st.lists.Take(len(paths)), st.steps.Take(n)
	for i, p := range paths {
		out[i] = sliceOfPath(tree.Source, p, &steps)
	}
	return out
}

// sliceOfPath cuts the slice of one path, carving its steps from the front
// of *steps.
func sliceOfPath(m *taint.MFT, p mft.Path, steps *[]Step) Slice {
	s := Slice{MFT: m, PathID: p.ID, PathHash: p.Hash, Leaf: p.Leaf()}
	if n := distinctSteps(*steps, p); n > 0 {
		s.Steps = (*steps)[:n:n]
		*steps = (*steps)[n:]
	}
	s.KeyHint = keyHint(p)
	return s
}

// distinctSteps writes the distinct steps of p's nodes, in path order, to
// the front of dst and returns how many there are; with a nil dst it only
// counts them.
func distinctSteps(dst []Step, p mft.Path) int {
	n := 0
	for _, node := range p.Nodes {
		if node.Orig.Fn == nil {
			continue
		}
		st := Step{Fn: node.Orig.Fn, OpIdx: node.Orig.OpIdx}
		if !hasStep(p.Nodes, node, st) {
			if dst != nil {
				dst[n] = st
			}
			n++
		}
	}
	return n
}

// hasStep reports whether a node of nodes before at steps through st.
func hasStep(nodes []*mft.SNode, at *mft.SNode, st Step) bool {
	for _, n := range nodes {
		if n == at {
			return false
		}
		if n.Orig.Fn == st.Fn && n.Orig.OpIdx == st.OpIdx {
			return true
		}
	}
	return false
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
// segment preceding its conversion verb: the literal part right before
// the verb, or "" when another verb or the start of the format is. It
// scans the format once and returns a substring of it, building a new
// string only when that text holds a "%%" escape.
func verbSegment(format string, arg *taint.Node) (string, bool) {
	if arg.Kind != taint.NodeArg || !strings.HasPrefix(arg.ArgLabel, "arg") {
		return "", false
	}
	argIdx, err := strconv.Atoi(arg.ArgLabel[3:])
	if err != nil {
		return "", false
	}
	// Value arguments follow the format argument; verb i is filled by
	// argument fmtPos+1+i. We do not know fmtPos here, but the engine
	// labels sprintf args starting at the format itself, and the smallest
	// possible value-argument index is 2 (sprintf) or 3 (snprintf): argK
	// fills verb K-2 when the format has one, else verb K-3.
	want := argIdx - 2
	if want < 0 {
		return "", false
	}
	verbs := 0
	text, last := "", "" // the raw text before the current part, and before the last verb
	for i := 0; i < len(format); {
		end, verb := scanPart(format, i)
		switch {
		case !verb:
			text = format[i:end]
		case verbs == want:
			return unescape(text), true
		default:
			last, text = text, ""
			verbs++
		}
		i = end
	}
	if verbs > 0 && verbs == want {
		return unescape(last), true
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
	for i := 0; i < len(format); {
		var p Part
		p, i = NextPart(format, i)
		parts = append(parts, p)
	}
	return parts
}

// NextPart returns the part of format that starts at byte i, and the
// index at which the next part starts. A literal part runs up to the next
// verb, and its Text is a substring of format unless it holds a "%%"
// escape, which only then is unescaped into a new string. A '%' that ends
// the format is literal text.
func NextPart(format string, i int) (Part, int) {
	end, verb := scanPart(format, i)
	text := format[i:end]
	if !verb {
		text = unescape(text)
	}
	return Part{Text: text, Verb: verb}, end
}

// verbFlags are the bytes a conversion verb may hold between its '%' and
// its conversion character: flags, width, precision and length.
const verbFlags = "0123456789.+-# lh"

// scanPart returns the end of the part of format that starts at byte i,
// and whether it is a conversion verb, copying nothing.
func scanPart(format string, i int) (end int, verb bool) {
	if format[i] == '%' && i+1 < len(format) && format[i+1] != '%' {
		j := i + 1
		for j < len(format) && strings.IndexByte(verbFlags, format[j]) >= 0 {
			j++
		}
		if j < len(format) {
			j++ // conversion character
		}
		return j, true
	}
	for i < len(format) {
		if format[i] == '%' && i+1 < len(format) {
			if format[i+1] != '%' {
				break // a verb starts here
			}
			i++ // a "%%" escape
		}
		i++
	}
	return i, false
}

// unescape turns the "%%" escapes of a literal part into '%'. Within a
// part every '%' but a final one pairs with the next, so replacing pairs
// from the left reads them as scanPart does.
func unescape(text string) string {
	if !strings.Contains(text, "%%") {
		return text
	}
	return strings.ReplaceAll(text, "%%", "%")
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

// similarity is Similarity computing the LCS in *rows, which
// pairSimilarities keeps across its pairwise comparisons.
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
// count at thresholds 0.5/0.6/0.7 (ClusterCounts).
func Cluster(items []string, threshold float64) [][]string {
	n := len(items)
	if n == 0 {
		return nil
	}
	u := components(n, pairSimilarities(items), threshold)
	groups := map[int][]string{}
	for i, s := range items {
		r := u.find(i)
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

// ClusterCounts returns len(Cluster(items, t)) for each t of thresholds,
// scoring each pair once: single-link clusters at t are the connected
// components of the pairs whose similarity is at least t, so every
// threshold only re-runs the union-find over the scores.
func ClusterCounts(items []string, thresholds []float64) []int {
	counts := make([]int, len(thresholds))
	if len(items) == 0 {
		return counts
	}
	sims := pairSimilarities(items)
	for k, t := range thresholds {
		u := components(len(items), sims, t)
		for i := range u {
			if u.find(i) == i {
				counts[k]++
			}
		}
	}
	return counts
}

// pairSimilarities returns the Similarity of every pair i < j of items, in
// row order: (0,1), (0,2), ..., (1,2), ...
func pairSimilarities(items []string) []float64 {
	n := len(items)
	sims := make([]float64, 0, n*(n-1)/2)
	var rows []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sims = append(sims, similarity(items[i], items[j], &rows))
		}
	}
	return sims
}

// unionFind is a disjoint-set forest over [0, n): u[x] is x's parent.
type unionFind []int

// components returns the union-find of n items in which every pair whose
// similarity (pairSimilarities order) meets threshold is joined.
func components(n int, sims []float64, threshold float64) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sims[k] >= threshold {
				u[u.find(i)] = u.find(j)
			}
			k++
		}
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// FormatSubstrings collects the literal segments of every resolved format
// string in a set of MFTs — the input population for delimiter clustering.
// The boolean reports whether any format string was seen at all, so callers
// deciding whether the executable uses formatted-output assembly need not
// walk the trees a second time.
func FormatSubstrings(mfts []*taint.MFT) ([]string, bool) {
	var out []string
	sawFormat := false
	for _, m := range mfts {
		if m.Root == nil {
			continue
		}
		m.Root.Walk(func(n *taint.Node) {
			if n.Format == "" {
				return
			}
			sawFormat = true
			for i := 0; i < len(n.Format); {
				var part Part
				part, i = NextPart(n.Format, i)
				if !part.Verb && !slices.Contains(out, part.Text) {
					out = append(out, part.Text)
				}
			}
		})
	}
	sort.Strings(out)
	return out, sawFormat
}
