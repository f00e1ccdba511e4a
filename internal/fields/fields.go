// Package fields concatenates identified message fields into reconstructed
// device-cloud messages (paper §IV-D): it matches code slices to their
// MFT's paths by path hash, discards trees whose communication address is
// LAN-local, infers the message format from the inverted simplified tree,
// and renders a concrete message that can be sent to the cloud.
package fields

import (
	"fmt"
	"strings"

	"firmres/internal/mft"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// Format classifies a reconstructed message's wire format.
type Format uint8

// Message formats.
const (
	FormatRaw   Format = iota + 1 // unstructured concatenation
	FormatJSON                    // cJSON-assembled body
	FormatQuery                   // key=value&key=value
	FormatMQTT                    // topic + payload
	FormatHTTP                    // path + body
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatJSON:
		return "json"
	case FormatQuery:
		return "query"
	case FormatMQTT:
		return "mqtt"
	case FormatHTTP:
		return "http"
	default:
		return fmt.Sprintf("format?%d", uint8(f))
	}
}

// Field is one reconstructed message field.
type Field struct {
	Key        string         // recovered key text ("mac=", "deviceId", ...)
	Semantics  string         // recovered primitive label (semantics.Label*)
	Confidence float64        // classifier confidence
	Source     taint.NodeKind // leaf kind (const/nvram/config/env/...)
	SourceKey  string         // NVRAM/config/env key or file path
	Value      string         // rendered concrete value
	Structural bool           // delimiter/format/path constant, not a value field
	PathHash   uint64
}

// Message is one reconstructed device-cloud message.
type Message struct {
	Deliver   string // delivery function (SSL_write, mqtt_publish, ...)
	Context   string // construction context (wrapper caller), "" if direct
	Function  string // function containing the delivery callsite
	Format    Format
	Topic     string // MQTT topic (FormatMQTT)
	Path      string // HTTP path (FormatHTTP)
	Body      string // rendered message body
	Fields    []Field
	Discarded bool   // true when the LAN filter dropped the tree
	Reason    string // discard reason
}

// SliceInfo pairs a slice with its recovered semantics.
type SliceInfo struct {
	Slice      slices.Slice
	Label      string
	Confidence float64
}

// Resolver supplies concrete values for non-constant field sources when
// rendering a message (NVRAM values from the firmware's defaults,
// placeholder credentials for front-end inputs, ...).
type Resolver interface {
	Resolve(leaf *taint.Node) (string, bool)
}

// MapResolver resolves sources from key/value maps.
type MapResolver struct {
	NVRAM  map[string]string
	Config map[string]string
	Env    map[string]string
	Files  map[string]string // file path -> content
}

var _ Resolver = (*MapResolver)(nil)

// Resolve implements Resolver.
func (r *MapResolver) Resolve(leaf *taint.Node) (string, bool) {
	var m map[string]string
	switch leaf.Kind {
	case taint.LeafNVRAM:
		m = r.NVRAM
	case taint.LeafConfig:
		m = r.Config
	case taint.LeafEnv:
		m = r.Env
	case taint.LeafFile:
		m = r.Files
	default:
		return "", false
	}
	v, ok := m[leaf.Key]
	return v, ok
}

// Build reconstructs the message of one simplified tree. The tree is
// inverted internally if it has not been already; infos carry the recovered
// semantics per path hash.
func Build(tree *mft.Tree, infos []SliceInfo, resolve Resolver) *Message {
	m := &Message{
		Deliver: tree.Source.Deliver,
		Context: tree.Source.Context,
	}
	if tree.Source.Site.Fn != nil {
		m.Function = tree.Source.Site.Fn.Name()
	}
	if tree.Root == nil {
		m.Discarded = true
		m.Reason = "empty tree"
		return m
	}
	if !tree.Inverted {
		tree.Invert()
	}

	byHash := make(map[uint64]SliceInfo, len(infos))
	for _, in := range infos {
		byHash[in.Slice.PathHash] = in
	}

	// LAN filter: a tree whose Address-labelled slices contain a LAN IP
	// string constant is local communication, not device-cloud (§IV-D).
	paths := tree.Paths()
	for _, p := range paths {
		info, ok := byHash[p.Hash]
		if !ok || info.Label != "Address" {
			continue
		}
		for _, n := range p.Nodes {
			if n.Orig.Kind == taint.LeafString && IsLANAddress(n.Orig.StrVal) {
				m.Discarded = true
				m.Reason = fmt.Sprintf("LAN address %q", n.Orig.StrVal)
				return m
			}
		}
	}

	// Fields in concatenation order (tree is inverted).
	if len(paths) > 0 {
		m.Fields = make([]Field, 0, len(paths))
	}
	for _, p := range paths {
		leaf := p.Leaf().Orig
		f := Field{
			Source:     leaf.Kind,
			PathHash:   p.Hash,
			Value:      renderLeaf(leaf, resolve),
			Structural: leaf.Kind == taint.LeafString && StructuralString(leaf.StrVal),
		}
		if info, ok := byHash[p.Hash]; ok {
			f.Semantics = info.Label
			f.Confidence = info.Confidence
			f.Key = info.Slice.KeyHint
		}
		switch leaf.Kind {
		case taint.LeafNVRAM, taint.LeafConfig, taint.LeafEnv, taint.LeafFile:
			f.SourceKey = leaf.Key
		}
		m.Fields = append(m.Fields, f)
	}

	m.Format = inferFormat(tree)
	renderMessage(m, tree, resolve)
	return m
}

// inferFormat reads the message format from the tree structure (§IV-D
// "Message Format Inference").
func inferFormat(tree *mft.Tree) Format {
	switch tree.Source.Deliver {
	case "mosquitto_publish", "mqtt_publish":
		return FormatMQTT
	case "http_post", "curl_easy_perform":
		return FormatHTTP
	}
	hasJSON := false
	hasQuery := false
	tree.Root.Walk(func(n *mft.SNode) {
		switch n.Orig.Kind {
		case taint.NodeJSON:
			hasJSON = true
		case taint.NodeCall:
			if f := n.Orig.Format; f != "" && strings.ContainsAny(f, "=&?") {
				hasQuery = true
			}
		case taint.LeafString:
			if s := n.Orig.StrVal; strings.Contains(s, "=") && strings.Contains(s, "&") {
				hasQuery = true
			}
		}
	})
	switch {
	case hasJSON:
		return FormatJSON
	case hasQuery:
		return FormatQuery
	default:
		return FormatRaw
	}
}

// StructuralString reports whether a constant looks like message structure
// (a format string, key/delimiter segment, or route) rather than a field
// value.
func StructuralString(s string) bool {
	if s == "" {
		return true
	}
	if strings.ContainsRune(s, '%') {
		return true
	}
	switch s[len(s)-1] {
	case '=', '&', '?', ':':
		return true
	}
	return s[0] == '/' || s[0] == '?'
}

// IsLANAddress reports whether s is a LAN, link-local, multicast, or
// broadcast address per the paper's list: 10.*.*.*, 172.16-31.*,
// 192.168.*.*, IPv6 FE80-prefixed, common multicast, and broadcast.
func IsLANAddress(s string) bool {
	host := s
	// Strip scheme and port if present.
	if i := strings.Index(host, "://"); i >= 0 {
		host = host[i+3:]
	}
	if i := strings.IndexAny(host, "/:"); i >= 0 && !strings.HasPrefix(strings.ToUpper(host), "FE80") {
		host = host[:i]
	}
	up := strings.ToUpper(host)
	if strings.HasPrefix(up, "FE80") {
		return true
	}
	if host == "255.255.255.255" {
		return true
	}
	var a, b, c, d int
	if n, err := fmt.Sscanf(host, "%d.%d.%d.%d", &a, &b, &c, &d); n != 4 || err != nil {
		return false
	}
	if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255 {
		return false
	}
	switch {
	case a == 10:
		return true
	case a == 172 && b >= 16 && b <= 31:
		return true
	case a == 192 && b == 168:
		return true
	case a >= 224 && a <= 239: // multicast
		return true
	}
	return false
}
