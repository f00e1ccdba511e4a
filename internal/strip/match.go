package strip

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"firmres/internal/binfmt"
	"firmres/internal/externs"
	"firmres/internal/isa"
)

// Hints carries image-level context that sharpens extern identification:
// the key universes extracted from the image's configuration files. A
// one-argument extern whose constant argument is a known NVRAM key is
// overwhelmingly an NVRAM getter; the same shape with a config-file key is a
// config reader. Both maps may be nil — matching degrades, it never fails.
type Hints struct {
	NVRAMKeys  map[string]bool
	ConfigKeys map[string]bool
}

// argKind classifies what a callsite passes in one argument register,
// recovered by a backward def-use walk from the callsite.
type argKind uint8

const (
	argParam argKind = iota // incoming function parameter (no local def)
	argInt                  // constant integer (not a pointer into any segment)
	argStr                  // constant pointer to a recovered string constant
	argBuf                  // constant pointer to writable data (non-string object)
	argFn                   // constant pointer into the text segment
	argRes                  // result of a preceding call
	argDyn                  // computed value (ALU result, memory load)
)

// argObs is one classified argument.
type argObs struct {
	kind argKind
	ival int32  // argInt: the constant
	str  string // argStr: the string contents
	res  int    // argRes: import index that produced it, -1 for a local call
}

// siteObs is one classified callsite of an import.
type siteObs struct {
	args []argObs
	// firstWriter is set when args[0] is a constant buffer no earlier
	// import callsite in the same function used as a destination — the
	// signal separating overwrite externs (strcpy) from appenders (strcat).
	firstWriter bool
}

// importObs aggregates every callsite of one import across the binary.
type importObs struct {
	idx     int
	sites   []siteObs
	arities []int
}

// matcher holds the cross-import context the per-signature scoring rules
// consult.
type matcher struct {
	bin   *binfmt.Binary
	hints Hints
	obs   []importObs
	// strAt maps data addresses to recovered string contents.
	strAt map[uint32]string
	// writtenBufs holds data addresses used as the destination (arg0) of
	// any multi-argument import call — buffers some callee populates.
	writtenBufs map[uint32]bool
	// zeroArity marks imports only ever called with zero arguments
	// (allocator/constructor shape, the cJSON_CreateObject fingerprint).
	zeroArity map[int]bool
}

// Scoring weights. A contradiction is weighted so that one type-impossible
// argument outweighs two strong matches.
const (
	scStrong = 2
	scGood   = 1
	scWeak   = -1
	scContra = -3
	scKey    = 4 // constant argument found in an image-derived key universe
	// anchorFloor is the minimum average callsite score an anchor-role
	// signature (recv/send/deliver) must reach: anchors flip a binary's
	// device-cloud verdict, so they demand positive behavioral evidence,
	// not just absence of contradiction.
	anchorFloor = 3.0
)

// exp is a per-argument behavioral expectation of a signature.
type exp uint8

const (
	xAny       exp = iota
	xInt           // constant integer
	xZero          // constant zero (flags-style trailing argument)
	xPosInt        // constant positive integer (length/size argument)
	xStr           // constant string
	xRoute         // constant string shaped like a wire route: starts '/' or '?'
	xFmt           // constant format string (contains '%')
	xHost          // constant hostname: contains '.', no '/'
	xKeyNVRAM      // constant string matched against the NVRAM key universe
	xKeyConfig     // constant string matched against the config key universe
	xKeyEnv        // constant string outside both key universes (front-end param)
	xKeyPath       // constant string shaped like a filesystem path
	xBuf           // pointer to a writable data object
	xFn            // pointer into the text segment (callback)
	xDyn           // computed value or call result (payload-style)
	xHandle        // connection-style value: parameter or call result
	xRes           // result of a preceding call
	xResJSON       // result of a zero-arity constructor (cJSON object handle)
	xStrOrDyn      // string constant or computed value
)

// sigSpec is the behavioral expectation list of one extern signature. For
// variadic signatures the expectations cover the leading arguments; extra
// arguments are unconstrained.
type sigSpec struct{ args []exp }

// specs maps extern names to their callsite expectations. Signatures absent
// here score neutral on every argument and win only by Table-order
// tie-break, which is exactly the behavior wanted for interchangeable
// helpers (strdup vs. urlencode share the dataflow summary that matters).
var specs = map[string]sigSpec{
	// Receive anchors: (handle, writable buffer, length, flags).
	"recv":      {[]exp{xHandle, xBuf, xPosInt, xZero}},
	"recvfrom":  {[]exp{xHandle, xBuf, xPosInt, xZero, xAny, xAny}},
	"recvmsg":   {[]exp{xHandle, xBuf, xInt}},
	"SSL_read":  {[]exp{xHandle, xBuf, xPosInt}},
	"mqtt_recv": {[]exp{xHandle, xBuf}},

	// Send anchors.
	"send":    {[]exp{xHandle, xStrOrDyn, xPosInt, xZero}},
	"sendto":  {[]exp{xHandle, xStrOrDyn, xPosInt, xZero, xAny, xAny}},
	"sendmsg": {[]exp{xHandle, xDyn, xInt}},

	// Delivery anchors. The route expectation is the discriminator that
	// keeps JSON-assembly calls (object, "key", value) from masquerading
	// as http_post(conn, path, body).
	"SSL_write":         {[]exp{xHandle, xBuf, xPosInt}},
	"CyaSSL_write":      {[]exp{xHandle, xBuf, xPosInt}},
	"curl_easy_perform": {[]exp{xRes}},
	"http_post":         {[]exp{xHandle, xRoute, xDyn}},
	"mosquitto_publish": {[]exp{xHandle, xInt, xRoute, xDyn}},
	"mqtt_publish":      {[]exp{xHandle, xRoute, xDyn}},

	// String/formatting helpers with dataflow summaries.
	"sprintf":       {[]exp{xBuf, xFmt}},
	"snprintf":      {[]exp{xBuf, xPosInt, xFmt}},
	"strcpy":        {[]exp{xBuf, xStrOrDyn}},
	"strncpy":       {[]exp{xBuf, xStrOrDyn, xPosInt}},
	"strcat":        {[]exp{xBuf, xStrOrDyn}},
	"strncat":       {[]exp{xBuf, xStrOrDyn, xPosInt}},
	"memcpy":        {[]exp{xBuf, xAny, xPosInt}},
	"strdup":        {[]exp{xStrOrDyn}},
	"strlen":        {[]exp{xStrOrDyn}},
	"strcmp":        {[]exp{xStrOrDyn, xStrOrDyn}},
	"strncmp":       {[]exp{xStrOrDyn, xStrOrDyn, xPosInt}},
	"strstr":        {[]exp{xStrOrDyn, xStrOrDyn}},
	"strchr":        {[]exp{xStrOrDyn, xInt}},
	"atoi":          {[]exp{xStrOrDyn}},
	"itoa":          {[]exp{xDyn, xBuf}},
	"base64_encode": {[]exp{xStrOrDyn, xBuf}},
	"urlencode":     {[]exp{xStrOrDyn}},

	// HTTP client helpers.
	"curl_easy_init": {nil},
	"curl_setopt":    {[]exp{xRes, xInt, xAny}},

	// JSON assembly: every call dereferences the zero-arity constructor's
	// handle, the key is a bare string constant.
	"cJSON_CreateObject":      {nil},
	"cJSON_AddStringToObject": {[]exp{xResJSON, xStr, xStrOrDyn}},
	"cJSON_AddNumberToObject": {[]exp{xResJSON, xStr, xDyn}},
	"cJSON_AddItemToObject":   {[]exp{xResJSON, xStr, xDyn}},
	"cJSON_Print":             {[]exp{xResJSON}},
	"cJSON_PrintUnformatted":  {[]exp{xResJSON}},
	"cJSON_Delete":            {[]exp{xResJSON}},

	// Field sources, disambiguated by the image's key universes.
	"nvram_get":      {[]exp{xKeyNVRAM}},
	"nvram_safe_get": {[]exp{xKeyNVRAM}},
	"config_read":    {[]exp{xKeyConfig}},
	"uci_get":        {[]exp{xKeyConfig}},
	"getenv":         {[]exp{xKeyEnv}},
	"web_get_param":  {[]exp{xKeyEnv}},

	// File I/O.
	"fopen":     {[]exp{xKeyPath, xStr}},
	"fread":     {[]exp{xAny, xPosInt, xPosInt, xHandle}},
	"fclose":    {[]exp{xHandle}},
	"read_file": {[]exp{xKeyPath}},

	// Event-loop registration: a text-segment constant is the fingerprint.
	"event_register": {[]exp{xFn, xAny}},
	"uloop_fd_add":   {[]exp{xFn, xAny}},
	"task_spawn":     {[]exp{xFn}},

	// Crypto/signing.
	"md5":         {[]exp{xStrOrDyn, xBuf}},
	"sha256":      {[]exp{xStrOrDyn, xBuf}},
	"hmac_sha256": {[]exp{xDyn, xDyn, xBuf}},
	"aes_encrypt": {[]exp{xDyn, xDyn, xBuf}},

	// Local IPC (negative anchors).
	"ipc_recv":    {[]exp{xInt, xBuf}},
	"ipc_send":    {[]exp{xInt, xStrOrDyn}},
	"ubus_invoke": {[]exp{xHandle, xStr, xAny}},

	// Misc libc/network shapes that share arities with anchors and need
	// enough of a profile not to steal (or be stolen by) them.
	"malloc":         {[]exp{xPosInt}},
	"calloc":         {[]exp{xPosInt, xPosInt}},
	"free":           {[]exp{xAny}},
	"printf":         {[]exp{xStrOrDyn}},
	"fprintf":        {[]exp{xHandle, xFmt}},
	"syslog":         {[]exp{xInt, xStrOrDyn}},
	"socket":         {[]exp{xInt, xInt, xInt}},
	"connect":        {[]exp{xHandle, xAny, xAny}},
	"bind":           {[]exp{xHandle, xAny, xAny}},
	"listen":         {[]exp{xHandle, xInt}},
	"accept":         {[]exp{xHandle, xZero, xZero}},
	"close":          {[]exp{xHandle}},
	"select":         {[]exp{xPosInt, xAny, xAny, xAny, xAny}},
	"epoll_wait":     {[]exp{xAny, xAny, xPosInt, xPosInt}},
	"usleep":         {[]exp{xPosInt}},
	"time":           {[]exp{xZero}},
	"gethostbyname":  {[]exp{xHost}},
	"ssl_connect":    {[]exp{xHandle, xHost}},
	"mqtt_connect":   {[]exp{xHandle, xHost, xInt}},
	"mqtt_subscribe": {[]exp{xHandle, xStr}},
	"SSL_new":        {[]exp{xHandle}},
	"exit":           {[]exp{xInt}},
}

// gather decodes every known function body and classifies every import
// callsite in it.
func gather(bin *binfmt.Binary, ts *textScan) *matcher {
	m := &matcher{
		bin:         bin,
		strAt:       map[uint32]string{},
		writtenBufs: map[uint32]bool{},
		zeroArity:   map[int]bool{},
		obs:         make([]importObs, len(bin.Imports)),
	}
	for i := range m.obs {
		m.obs[i].idx = i
	}
	for _, ds := range bin.DataSyms {
		if ds.Kind != binfmt.DataString || ds.Size == 0 {
			continue
		}
		off := ds.Addr - bin.DataBase
		if int(off)+int(ds.Size) <= len(bin.Data) {
			m.strAt[ds.Addr] = string(bin.Data[off : off+ds.Size-1])
		}
	}

	funcs := append([]binfmt.FuncSym(nil), bin.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Addr < funcs[j].Addr })
	for _, f := range funcs {
		start, end := ts.slotOf(f.Addr), ts.slotOf(f.Addr+f.Size-isa.InstrSize)
		if start < 0 {
			continue
		}
		if end < 0 {
			end = len(ts.instrs) - 1
		}
		written := map[uint32]bool{}
		for s := start; s <= end; s++ {
			if !ts.valid[s] || ts.instrs[s].Op != isa.OpCallI {
				continue
			}
			in := ts.instrs[s]
			imp := int(in.Imm)
			if imp < 0 || imp >= len(bin.Imports) {
				continue
			}
			arity := int(in.Rs1)
			if np := bin.Imports[imp].NumParams; np >= 0 {
				arity = np
			}
			if arity > isa.NumArgRegs {
				arity = isa.NumArgRegs
			}
			site := siteObs{args: make([]argObs, arity), firstWriter: true}
			for a := 0; a < arity; a++ {
				site.args[a] = m.classify(ts, start, s, isa.ArgReg(a))
			}
			if arity >= 2 && site.args[0].kind == argBuf {
				addr := uint32(site.args[0].ival)
				site.firstWriter = !written[addr]
				written[addr] = true
				m.writtenBufs[addr] = true
			}
			m.obs[imp].sites = append(m.obs[imp].sites, site)
			m.obs[imp].arities = append(m.obs[imp].arities, arity)
		}
	}
	for i := range m.obs {
		all0 := len(m.obs[i].sites) > 0
		for _, a := range m.obs[i].arities {
			if a != 0 {
				all0 = false
			}
		}
		m.zeroArity[i] = all0
	}
	return m
}

// classify resolves what a callsite passes in reg by scanning backwards for
// its definition, following register-to-register moves. The walk is
// straight-line within the function body — argument setup is adjacent to its
// call in compiled code, so the approximation holds in practice and degrades
// to argDyn/argParam, never to a false constant.
func (m *matcher) classify(ts *textScan, start, site int, reg isa.Reg) argObs {
	if reg == isa.R0 {
		return argObs{kind: argInt, ival: 0}
	}
	for s := site - 1; s >= start; s-- {
		if !ts.valid[s] {
			return argObs{kind: argDyn}
		}
		in := ts.instrs[s]
		switch in.Op {
		case isa.OpLI, isa.OpLA:
			if in.Rd == reg {
				return m.classifyConst(in.Imm)
			}
		case isa.OpMov:
			if in.Rd == reg {
				if in.Rs1 == isa.R0 {
					return argObs{kind: argInt, ival: 0}
				}
				reg = in.Rs1
			}
		case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAddI,
			isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
			isa.OpLW, isa.OpLB:
			if in.Rd == reg {
				return argObs{kind: argDyn}
			}
		case isa.OpCallI:
			imp := int(in.Imm)
			hasRes := imp >= 0 && imp < len(m.bin.Imports) && m.bin.Imports[imp].HasResult
			if hasRes && reg == isa.R1 {
				return argObs{kind: argRes, res: imp}
			}
		case isa.OpCall, isa.OpCallR:
			if reg == isa.R1 {
				return argObs{kind: argRes, res: -1}
			}
		}
	}
	return argObs{kind: argParam}
}

// classifyConst types a constant by which segment it points into.
func (m *matcher) classifyConst(imm int32) argObs {
	addr := uint32(imm)
	b := m.bin
	if addr >= b.TextBase && addr < b.TextBase+uint32(len(b.Text)) {
		return argObs{kind: argFn, ival: imm}
	}
	if addr >= b.DataBase && addr < b.DataBase+uint32(len(b.Data)) {
		if s, ok := m.strAt[addr]; ok {
			return argObs{kind: argStr, ival: imm, str: s}
		}
		return argObs{kind: argBuf, ival: imm}
	}
	return argObs{kind: argInt, ival: imm}
}

// scoreArg scores one observed argument against one expectation.
func (m *matcher) scoreArg(e exp, a argObs) int {
	switch e {
	case xAny:
		return 0
	case xInt:
		return constInt(a, func(v int32) int { return scStrong })
	case xZero:
		return constInt(a, func(v int32) int {
			if v == 0 {
				return scStrong
			}
			return scWeak
		})
	case xPosInt:
		return constInt(a, func(v int32) int {
			if v > 0 {
				return scStrong
			}
			return scWeak
		})
	case xStr:
		return constStr(a, func(s string) int { return scStrong })
	case xRoute:
		return constStr(a, func(s string) int {
			if strings.HasPrefix(s, "/") || strings.HasPrefix(s, "?") {
				return scStrong
			}
			return scContra
		})
	case xFmt:
		return constStr(a, func(s string) int {
			if strings.Contains(s, "%") {
				return scStrong
			}
			return scWeak
		})
	case xHost:
		return constStr(a, func(s string) int {
			if strings.Contains(s, ".") && !strings.Contains(s, "/") {
				return scStrong + scGood
			}
			return scWeak
		})
	case xKeyNVRAM:
		return constStr(a, func(s string) int {
			if m.hints.NVRAMKeys[s] {
				return scKey
			}
			return scGood
		})
	case xKeyConfig:
		return constStr(a, func(s string) int {
			if m.hints.ConfigKeys[s] {
				return scKey
			}
			return scGood
		})
	case xKeyEnv:
		return constStr(a, func(s string) int {
			if m.hints.NVRAMKeys[s] || m.hints.ConfigKeys[s] || strings.HasPrefix(s, "/") {
				return 0
			}
			return scStrong
		})
	case xKeyPath:
		return constStr(a, func(s string) int {
			if strings.HasPrefix(s, "/") {
				return scKey
			}
			return 0
		})
	case xBuf:
		switch a.kind {
		case argBuf:
			return scStrong
		case argStr, argInt, argFn:
			return scContra
		default:
			return 0
		}
	case xFn:
		switch a.kind {
		case argFn:
			return scStrong
		case argInt, argStr, argBuf:
			return scContra
		default:
			return 0
		}
	case xDyn:
		switch a.kind {
		case argDyn, argRes, argParam, argBuf:
			return scGood
		case argStr:
			return 0
		default:
			return scContra
		}
	case xHandle:
		switch a.kind {
		case argParam, argRes:
			return scStrong
		case argDyn:
			return scGood
		default:
			return scContra
		}
	case xRes:
		switch a.kind {
		case argRes:
			return scStrong
		case argParam, argDyn:
			return 0
		default:
			return scContra
		}
	case xResJSON:
		switch a.kind {
		case argRes:
			if a.res >= 0 && m.zeroArity[a.res] {
				return scStrong + scGood
			}
			return 0
		case argParam, argDyn:
			return 0
		default:
			return scContra
		}
	case xStrOrDyn:
		switch a.kind {
		case argStr, argBuf, argDyn, argParam, argRes:
			return scGood
		default:
			return scContra
		}
	}
	return 0
}

// constInt scores an expectation that demands a constant integer: pointers
// contradict, unknown values are neutral.
func constInt(a argObs, f func(int32) int) int {
	switch a.kind {
	case argInt:
		return f(a.ival)
	case argStr, argBuf, argFn:
		return scContra
	default:
		return 0
	}
}

// constStr scores an expectation that demands a constant string: integers
// and code pointers contradict, writable buffers and unknowns are neutral.
func constStr(a argObs, f func(string) int) int {
	switch a.kind {
	case argStr:
		return f(a.str)
	case argInt, argFn:
		return scContra
	case argBuf:
		return 0
	default:
		return 0
	}
}

// scoreSig scores one candidate signature against every observed callsite
// of an import, returning the average per-site score (plus cross-site
// bonuses) and whether any site contradicted the signature.
func (m *matcher) scoreSig(sig externs.Sig, ob importObs) (float64, bool) {
	spec := specs[sig.Name]
	total, contra := 0, false
	for _, site := range ob.sites {
		for i, e := range spec.args {
			if i >= len(site.args) {
				break
			}
			s := m.scoreArg(e, site.args[i])
			if s <= scContra {
				contra = true
			}
			total += s
		}
	}
	avg := float64(total) / float64(len(ob.sites))
	avg += m.bonus(sig, ob)
	return avg, contra
}

// bonus applies cross-site behavioral evidence that single-argument shapes
// cannot express.
func (m *matcher) bonus(sig externs.Sig, ob importObs) float64 {
	n := float64(len(ob.sites))
	switch sig.Name {
	case "SSL_write", "CyaSSL_write":
		// A delivery payload buffer is populated elsewhere before the call;
		// a receive buffer is not.
		hits := 0.0
		for _, s := range ob.sites {
			if len(s.args) > 1 && s.args[1].kind == argBuf && m.writtenBufs[uint32(s.args[1].ival)] {
				hits++
			}
		}
		return 2 * hits / n
	case "recv", "recvfrom", "recvmsg", "SSL_read", "mqtt_recv":
		hits := 0.0
		for _, s := range ob.sites {
			if len(s.args) > 1 && s.args[1].kind == argBuf && m.writtenBufs[uint32(s.args[1].ival)] {
				hits++
			}
		}
		return -2 * hits / n
	case "http_post":
		hits := 0.0
		for _, s := range ob.sites {
			if len(s.args) > 1 && s.args[1].kind == argStr {
				r := s.args[1].str
				if strings.Contains(r, "api") || strings.Contains(r, "?") ||
					strings.Contains(r, "=") || strings.Contains(r, "cgi") {
					hits++
				}
			}
		}
		return 2 * hits / n
	case "mqtt_publish":
		hits := 0.0
		for _, s := range ob.sites {
			if len(s.args) > 1 && s.args[1].kind == argStr &&
				strings.Count(s.args[1].str, "/") >= 3 && !strings.Contains(s.args[1].str, "?") {
				hits++
			}
		}
		return 2 * hits / n
	case "cJSON_CreateObject":
		// The constructor's handle flows into (handle, "key", value) adds
		// or single-argument renders — count its consumers.
		for _, cons := range m.consumersOf(ob.idx) {
			if (cons.argIdx == 0 && len(cons.site.args) >= 2 && cons.site.args[1].kind == argStr) ||
				len(cons.site.args) == 1 {
				return 3
			}
		}
		return 0
	case "curl_easy_init":
		for _, cons := range m.consumersOf(ob.idx) {
			if cons.argIdx == 0 && len(cons.site.args) == 3 && cons.site.args[1].kind == argInt {
				return 3
			}
		}
		return 0
	case "strcpy", "strncpy":
		return writerBonus(ob, true)
	case "strcat", "strncat":
		return writerBonus(ob, false)
	}
	return 0
}

// writerBonus rewards overwrite signatures whose destination is always the
// first write to its buffer, and appender signatures whose destination has
// been written before.
func writerBonus(ob importObs, wantFirst bool) float64 {
	seen := false
	allFirst := true
	for _, s := range ob.sites {
		if len(s.args) >= 2 && s.args[0].kind == argBuf {
			seen = true
			if !s.firstWriter {
				allFirst = false
			}
		}
	}
	if !seen {
		return 0
	}
	if allFirst == wantFirst {
		return 2
	}
	return -2
}

type consumer struct {
	imp    int
	argIdx int
	site   siteObs
}

// consumersOf lists every callsite argument fed by the result of import idx.
func (m *matcher) consumersOf(idx int) []consumer {
	var out []consumer
	for _, ob := range m.obs {
		for _, site := range ob.sites {
			for k, a := range site.args {
				if a.kind == argRes && a.res == idx {
					out = append(out, consumer{imp: ob.idx, argIdx: k, site: site})
				}
			}
		}
	}
	return out
}

// scored is one import's ranked candidate list.
type scored struct {
	imp        int
	candidates []candScore // descending score, Table-order stable
}

type candScore struct {
	sig   externs.Sig
	score float64
}

func isAnchor(r externs.Role) bool {
	return r == externs.RoleRecv || r == externs.RoleSend || r == externs.RoleDeliver
}

// rank scores every compatible signature for one import and returns the
// survivors in descending score order (Table order on ties).
func (m *matcher) rank(ix *externs.SigIndex, ob importObs) []candScore {
	hasResult := m.bin.Imports[ob.idx].HasResult
	var out []candScore
	for _, sig := range ix.Candidates(ob.arities, hasResult) {
		avg, contra := m.scoreSig(sig, ob)
		if isAnchor(sig.Role) {
			if contra || avg < anchorFloor {
				continue
			}
		} else if avg < 0 {
			continue
		}
		out = append(out, candScore{sig: sig, score: avg})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	return out
}

// sigIndex is the name-blind signature index, built on first use and
// shared by every stripped binary of the process (it is immutable).
var sigIndex = sync.OnceValue(externs.NewSigIndex)

// matchExterns identifies every nameless import of bin by behavioral
// signature and writes the winning names (and their true prototypes) back
// into the import table, recording per-binding confidence in st.
//
// Assignment is injective — an extern name appears at most once per import
// table, as in real dynamic symbol tables — and greedy by decreasing margin:
// the most confidently identified imports claim their names first, so an
// ambiguous import cannot steal a name from an unambiguous one.
func matchExterns(bin *binfmt.Binary, ts *textScan, h Hints, st *Stats) {
	m := gather(bin, ts)
	m.hints = h
	ix := sigIndex()

	ranked := make([]scored, 0, len(bin.Imports))
	for i := range bin.Imports {
		if bin.Imports[i].Name != "" {
			continue // partial strip: keep surviving names authoritative
		}
		st.ExternsTotal++
		ranked = append(ranked, scored{imp: i, candidates: m.rank(ix, m.obs[i])})
	}

	// Greedy order: largest top-two margin first, import index as the
	// deterministic tie-break.
	sort.SliceStable(ranked, func(i, j int) bool {
		return margin(ranked[i].candidates) > margin(ranked[j].candidates)
	})

	taken := map[string]bool{}
	for _, r := range ranked {
		b := Binding{Import: r.imp, Sites: len(m.obs[r.imp].sites)}
		if len(m.obs[r.imp].arities) > 0 {
			b.Arity = m.obs[r.imp].arities[0]
		}
		var win *candScore
		var runnerUp string
		for ci := range r.candidates {
			if !taken[r.candidates[ci].sig.Name] {
				win = &r.candidates[ci]
				for _, alt := range r.candidates[ci+1:] {
					if !taken[alt.sig.Name] {
						runnerUp = fmt.Sprintf("%s(%.1f)", alt.sig.Name, alt.score)
						break
					}
				}
				break
			}
		}
		if win == nil || win.score <= 0 {
			b.Evidence = fmt.Sprintf("unbound: %d candidate(s), none with positive evidence", len(r.candidates))
			st.Bindings = append(st.Bindings, b)
			continue
		}
		taken[win.sig.Name] = true
		bin.Imports[r.imp].Name = win.sig.Name
		bin.Imports[r.imp].NumParams = win.sig.NumParams
		b.Name = win.sig.Name
		b.Confidence = confidence(win.score, runnerUp, r.candidates)
		b.Evidence = fmt.Sprintf("score=%.1f sites=%d", win.score, b.Sites)
		if runnerUp != "" {
			b.Evidence += " runner-up=" + runnerUp
		}
		st.ExternsBound++
		st.Bindings = append(st.Bindings, b)
	}
	sort.Slice(st.Bindings, func(i, j int) bool { return st.Bindings[i].Import < st.Bindings[j].Import })
}

// margin is the score gap between an import's best and second-best
// candidates; sole candidates get their full score as margin.
func margin(cands []candScore) float64 {
	switch len(cands) {
	case 0:
		return -1
	case 1:
		return cands[0].score
	default:
		return cands[0].score - cands[1].score
	}
}

// confidence normalizes the winning margin into [0,1]: 1 when no live
// alternative existed, shrinking toward 0 as the runner-up closes in.
func confidence(winScore float64, runnerUp string, cands []candScore) float64 {
	if winScore <= 0 {
		return 0
	}
	mg := winScore
	if runnerUp != "" && len(cands) > 1 {
		mg = winScore - cands[1].score
	}
	c := mg / winScore
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c
}
