package fields

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"strconv"
	"strings"

	"firmres/internal/mft"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// renderMessage fills the message's Topic/Path/Body from the inverted tree.
func renderMessage(m *Message, tree *mft.Tree, resolve Resolver) {
	root := tree.Root
	var bodies []string
	for _, arg := range root.Children {
		label := arg.Orig.ArgLabel
		text := renderNode(arg, resolve)
		switch label {
		case "topic":
			m.Topic = text
		case "path":
			m.Path = text
		default:
			bodies = append(bodies, text)
		}
	}
	m.Body = strings.Join(bodies, "")
	// HTTP requests rendered by curl-style handles put the path into the
	// body stream; split a leading path off when none was labelled.
	if m.Format == FormatHTTP && m.Path == "" && strings.HasPrefix(m.Body, "/") {
		if i := strings.IndexAny(m.Body, " \n{"); i > 0 {
			m.Path, m.Body = m.Body[:i], m.Body[i:]
		} else {
			m.Path, m.Body = m.Body, ""
		}
	}
}

// renderNode renders a subtree into its concrete message text. The tree
// must be inverted (children in concatenation order).
func renderNode(n *mft.SNode, resolve Resolver) string {
	orig := n.Orig
	if orig.Leaf() {
		return renderLeaf(orig, resolve)
	}
	switch orig.Kind {
	case taint.NodeJSON:
		return renderJSON(n, resolve)
	case taint.NodeOp:
		if orig.Callee == "STORE" {
			// Raw word stores write binary data outside the string body
			// (the over-taint noise channel); they contribute fields but no
			// rendered text.
			return ""
		}
		var b strings.Builder
		for _, c := range n.Children {
			b.WriteString(renderNode(c, resolve))
		}
		return b.String()
	case taint.NodeCall:
		return renderCall(n, resolve)
	default:
		var b strings.Builder
		for _, c := range n.Children {
			b.WriteString(renderNode(c, resolve))
		}
		return b.String()
	}
}

// renderCall renders a library-call construction step.
func renderCall(n *mft.SNode, resolve Resolver) string {
	children := func() []string {
		out := make([]string, 0, len(n.Children))
		for _, c := range n.Children {
			out = append(out, renderNode(c, resolve))
		}
		return out
	}
	switch n.Orig.Callee {
	case "sprintf", "snprintf":
		return renderFormat(n, resolve)
	case "hmac_sha256":
		parts := children()
		if len(parts) >= 2 {
			mac := hmac.New(sha256.New, []byte(parts[0]))
			mac.Write([]byte(parts[1]))
			return hex.EncodeToString(mac.Sum(nil))
		}
		return strings.Join(parts, "")
	case "md5":
		sum := md5.Sum([]byte(strings.Join(children(), "")))
		return hex.EncodeToString(sum[:])
	case "sha256":
		sum := sha256.Sum256([]byte(strings.Join(children(), "")))
		return hex.EncodeToString(sum[:])
	case "base64_encode":
		return base64.StdEncoding.EncodeToString([]byte(strings.Join(children(), "")))
	case "aes_encrypt":
		// Simulated: opaque hex of the input (the cloud simulator mirrors
		// this transformation).
		sum := sha256.Sum256([]byte("aes:" + strings.Join(children(), "")))
		return hex.EncodeToString(sum[:16])
	case "cJSON_AddStringToObject", "cJSON_AddNumberToObject", "cJSON_AddItemToObject":
		// Rendered by renderJSON; standalone occurrence renders its value.
		return strings.Join(children(), "")
	default:
		return strings.Join(children(), "")
	}
}

// renderFormat fills a sprintf-style format with the rendered value
// children, in order.
func renderFormat(n *mft.SNode, resolve Resolver) string {
	format := n.Orig.Format
	// Collect value children: NodeArg-wrapped subtrees except the format
	// string itself.
	var values []string
	for _, c := range n.Children {
		if isFormatLeaf(c, format) {
			continue
		}
		values = append(values, renderNode(c, resolve))
	}
	if format == "" {
		return strings.Join(values, "")
	}
	var b strings.Builder
	vi := 0
	for i := 0; i < len(format); {
		var part slices.Part
		part, i = slices.NextPart(format, i)
		if !part.Verb {
			b.WriteString(part.Text)
			continue
		}
		if vi < len(values) {
			b.WriteString(values[vi])
			vi++
		}
	}
	return b.String()
}

// isFormatLeaf reports whether the child subtree is just the format-string
// constant itself.
func isFormatLeaf(n *mft.SNode, format string) bool {
	if format == "" {
		return false
	}
	cur := n
	for {
		if cur.Orig.Kind == taint.LeafString && cur.Orig.StrVal == format {
			return true
		}
		if len(cur.Children) != 1 {
			return false
		}
		cur = cur.Children[0]
	}
}

// renderJSON renders a cJSON object subtree as a JSON object.
func renderJSON(n *mft.SNode, resolve Resolver) string {
	var pairs []string
	for _, c := range n.Children {
		pairs = append(pairs, renderJSONPairs(c, resolve)...)
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// renderJSONPairs extracts "key":value strings from Add* nodes, descending
// through helper-call wrappers.
func renderJSONPairs(n *mft.SNode, resolve Resolver) []string {
	orig := n.Orig
	switch {
	case orig.Kind == taint.NodeCall && orig.Callee == "cJSON_AddNumberToObject":
		val := renderChildren(n, resolve)
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			val = strconv.Quote(val)
		}
		return []string{strconv.Quote(orig.Key) + ":" + val}
	case orig.Kind == taint.NodeCall && orig.Callee == "cJSON_AddStringToObject":
		return []string{strconv.Quote(orig.Key) + ":" + strconv.Quote(renderChildren(n, resolve))}
	case orig.Kind == taint.NodeCall && orig.Callee == "cJSON_AddItemToObject":
		inner := "{}"
		if len(n.Children) > 0 {
			inner = renderNode(n.Children[0], resolve)
		}
		return []string{strconv.Quote(orig.Key) + ":" + inner}
	default:
		var out []string
		for _, c := range n.Children {
			out = append(out, renderJSONPairs(c, resolve)...)
		}
		return out
	}
}

func renderChildren(n *mft.SNode, resolve Resolver) string {
	var b strings.Builder
	for _, c := range n.Children {
		b.WriteString(renderNode(c, resolve))
	}
	return b.String()
}

// renderLeaf produces the concrete value of a field source.
func renderLeaf(leaf *taint.Node, resolve Resolver) string {
	switch leaf.Kind {
	case taint.LeafString:
		return leaf.StrVal
	case taint.LeafNumeric:
		return strconv.FormatUint(leaf.ConstVal, 10)
	case taint.LeafDynamic:
		switch leaf.Callee {
		case "time":
			return "1700000000" // fixed probe timestamp
		default:
			return "12345"
		}
	case taint.LeafNVRAM, taint.LeafConfig, taint.LeafEnv, taint.LeafFile:
		if resolve != nil {
			if v, ok := resolve.Resolve(leaf); ok {
				return v
			}
		}
		return "<" + leaf.Key + ">"
	default:
		return ""
	}
}
