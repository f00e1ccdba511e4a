package strip

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
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
	ival int32 // argInt: the constant; argStr, argBuf, argFn: the address
	// ref is, for argStr, the string's length at ival in bin.Data
	// (matcher.str); for argRes, the import index that produced the value,
	// -1 for a local call.
	ref int32
}

// siteObs is one classified callsite of an import: its arguments are
// matcher.args[at : at+arity] (matcher.argsOf).
type siteObs struct {
	at    int32
	arity uint8
	// firstWriter is set when the first argument is a constant buffer no
	// earlier import callsite in the same function used as a destination —
	// the signal separating overwrite externs (strcpy) from appenders
	// (strcat).
	firstWriter bool
}

// importObs aggregates every callsite of one import across the binary.
// Its sites are carved from one array the matcher allocates for all
// imports, as their arguments are.
type importObs struct {
	idx   int
	sites []siteObs
}

// arities returns what the signature index needs of ob's callsite
// arities, in buf: none without callsites, the one arity every site
// passes, or the first two that differ.
func (ob *importObs) arities(buf *[2]int) []int {
	out := buf[:0]
	for _, s := range ob.sites {
		if a := int(s.arity); len(out) == 0 || a != out[0] {
			if out = append(out, a); len(out) == 2 {
				break
			}
		}
	}
	return out
}

// matcher holds the cross-import context the per-signature scoring rules
// consult.
type matcher struct {
	bin   *binfmt.Binary
	hints Hints
	obs   []importObs
	args  []argObs // every callsite's arguments, in gather's order
	// symsSorted reports whether bin.DataSyms is in strictly ascending
	// address order, so stringAt can search it by bisection.
	symsSorted bool
	// writtenBufs holds data addresses used as the destination (arg0) of
	// any multi-argument import call — buffers some callee populates.
	writtenBufs map[uint32]bool
	// zeroArity marks, by import index, imports only ever called with zero
	// arguments (allocator/constructor shape, the cJSON_CreateObject
	// fingerprint).
	zeroArity []bool
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

// gather decodes every known function body and classifies every import
// callsite in it. A first walk counts each import's callsites and their
// arguments, so the second carves every site and every argument list from
// one array each.
func gather(bin *binfmt.Binary, ts *textScan) *matcher {
	m := &matcher{
		bin:         bin,
		symsSorted:  ascendingAddrs(bin.DataSyms, func(d binfmt.DataSym) uint32 { return d.Addr }),
		writtenBufs: map[uint32]bool{},
		zeroArity:   make([]bool, len(bin.Imports)),
		obs:         make([]importObs, len(bin.Imports)),
	}
	funcs := bin.Funcs
	if !ascendingAddrs(funcs, func(f binfmt.FuncSym) uint32 { return f.Addr }) {
		funcs = append([]binfmt.FuncSym(nil), funcs...)
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Addr < funcs[j].Addr })
	}

	counts := make([]int, len(bin.Imports))
	nSites, nArgs := 0, 0
	eachCallsite(bin, ts, funcs, func(_, _, _, imp, arity int) {
		counts[imp]++
		nSites++
		nArgs += arity
	})
	sites := make([]siteObs, nSites)
	m.args = make([]argObs, nArgs)
	for i, n := range counts {
		m.obs[i] = importObs{idx: i, sites: sites[:0:n]}
		sites = sites[n:]
	}

	written := map[uint32]bool{}
	lastFn, at := -1, 0
	eachCallsite(bin, ts, funcs, func(fn, start, s, imp, arity int) {
		if fn != lastFn {
			clear(written)
			lastFn = fn
		}
		site := siteObs{at: int32(at), arity: uint8(arity), firstWriter: true}
		args := m.args[at : at+arity]
		at += arity
		for a := range args {
			args[a] = m.classify(ts, start, s, isa.ArgReg(a))
		}
		if arity >= 2 && args[0].kind == argBuf {
			addr := uint32(args[0].ival)
			site.firstWriter = !written[addr]
			written[addr] = true
			m.writtenBufs[addr] = true
		}
		m.obs[imp].sites = append(m.obs[imp].sites, site)
	})
	for i := range m.obs {
		var buf [2]int
		a := m.obs[i].arities(&buf)
		m.zeroArity[i] = len(a) == 1 && a[0] == 0
	}
	return m
}

// ascendingAddrs reports whether addr is strictly increasing over syms.
func ascendingAddrs[S any](syms []S, addr func(S) uint32) bool {
	for i := 1; i < len(syms); i++ {
		if addr(syms[i]) <= addr(syms[i-1]) {
			return false
		}
	}
	return true
}

// eachCallsite calls fn for every import callsite in the body of each of
// funcs, in address order within each body, with the function's position
// in funcs, its body's first slot, the callsite's slot, the import index
// and the arity the site passes.
func eachCallsite(bin *binfmt.Binary, ts *textScan, funcs []binfmt.FuncSym, fn func(f, start, site, imp, arity int)) {
	for fi, f := range funcs {
		start, end := ts.slotOf(f.Addr), ts.slotOf(f.Addr+f.Size-isa.InstrSize)
		if start < 0 {
			continue
		}
		if end < 0 {
			end = len(ts.instrs) - 1
		}
		for s := start; s <= end; s++ {
			if ts.instrs[s].Op != isa.OpCallI {
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
			fn(fi, start, s, imp, arity)
		}
	}
}

// stringAt returns the length of the recovered string constant that
// starts at the data address addr: the last string symbol at addr, in
// DataSyms order, that lies inside the data segment.
func (m *matcher) stringAt(addr uint32) (uint32, bool) {
	syms := m.bin.DataSyms
	lo := 0
	if m.symsSorted {
		lo = sort.Search(len(syms), func(i int) bool { return syms[i].Addr >= addr })
	}
	n, found := uint32(0), false
	for _, ds := range syms[lo:] {
		if ds.Addr != addr {
			if m.symsSorted {
				break
			}
			continue
		}
		off := ds.Addr - m.bin.DataBase
		if ds.Kind == binfmt.DataString && ds.Size != 0 && int(off)+int(ds.Size) <= len(m.bin.Data) {
			n, found = ds.Size-1, true
		}
	}
	return n, found
}

// argsOf returns the arguments of one callsite.
func (m *matcher) argsOf(s siteObs) []argObs {
	return m.args[s.at : s.at+int32(s.arity)]
}

// str returns the contents of a string argument, read in place from the
// data segment.
func (m *matcher) str(a argObs) []byte {
	off := uint32(a.ival) - m.bin.DataBase
	return m.bin.Data[off : off+uint32(a.ref)]
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
		if !ts.valid(s) {
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
				return argObs{kind: argRes, ref: int32(imp)}
			}
		case isa.OpCall, isa.OpCallR:
			if reg == isa.R1 {
				return argObs{kind: argRes, ref: -1}
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
		if n, ok := m.stringAt(addr); ok {
			return argObs{kind: argStr, ival: imm, ref: int32(n)}
		}
		return argObs{kind: argBuf, ival: imm}
	}
	return argObs{kind: argInt, ival: imm}
}

// scoreArg scores one observed argument against one expectation.
func (m *matcher) scoreArg(e externs.Expect, a argObs) int {
	switch e {
	case externs.ExpAny:
		return 0
	case externs.ExpInt:
		return constInt(a, func(v int32) int { return scStrong })
	case externs.ExpZero:
		return constInt(a, func(v int32) int {
			if v == 0 {
				return scStrong
			}
			return scWeak
		})
	case externs.ExpPosInt:
		return constInt(a, func(v int32) int {
			if v > 0 {
				return scStrong
			}
			return scWeak
		})
	case externs.ExpStr:
		return m.constStr(a, func(s []byte) int { return scStrong })
	case externs.ExpRoute:
		return m.constStr(a, func(s []byte) int {
			if startsWith(s, '/') || startsWith(s, '?') {
				return scStrong
			}
			return scContra
		})
	case externs.ExpFmt:
		return m.constStr(a, func(s []byte) int {
			if bytes.IndexByte(s, '%') >= 0 {
				return scStrong
			}
			return scWeak
		})
	case externs.ExpHost:
		return m.constStr(a, func(s []byte) int {
			if bytes.IndexByte(s, '.') >= 0 && bytes.IndexByte(s, '/') < 0 {
				return scStrong + scGood
			}
			return scWeak
		})
	case externs.ExpKeyNVRAM:
		return m.constStr(a, func(s []byte) int {
			if m.hints.NVRAMKeys[string(s)] {
				return scKey
			}
			return scGood
		})
	case externs.ExpKeyConfig:
		return m.constStr(a, func(s []byte) int {
			if m.hints.ConfigKeys[string(s)] {
				return scKey
			}
			return scGood
		})
	case externs.ExpKeyEnv:
		return m.constStr(a, func(s []byte) int {
			if m.hints.NVRAMKeys[string(s)] || m.hints.ConfigKeys[string(s)] || startsWith(s, '/') {
				return 0
			}
			return scStrong
		})
	case externs.ExpKeyPath:
		return m.constStr(a, func(s []byte) int {
			if startsWith(s, '/') {
				return scKey
			}
			return 0
		})
	case externs.ExpBuf:
		switch a.kind {
		case argBuf:
			return scStrong
		case argStr, argInt, argFn:
			return scContra
		default:
			return 0
		}
	case externs.ExpFn:
		switch a.kind {
		case argFn:
			return scStrong
		case argInt, argStr, argBuf:
			return scContra
		default:
			return 0
		}
	case externs.ExpDyn:
		switch a.kind {
		case argDyn, argRes, argParam, argBuf:
			return scGood
		case argStr:
			return 0
		default:
			return scContra
		}
	case externs.ExpHandle:
		switch a.kind {
		case argParam, argRes:
			return scStrong
		case argDyn:
			return scGood
		default:
			return scContra
		}
	case externs.ExpRes:
		switch a.kind {
		case argRes:
			return scStrong
		case argParam, argDyn:
			return 0
		default:
			return scContra
		}
	case externs.ExpResJSON:
		switch a.kind {
		case argRes:
			if a.ref >= 0 && m.zeroArity[a.ref] {
				return scStrong + scGood
			}
			return 0
		case argParam, argDyn:
			return 0
		default:
			return scContra
		}
	case externs.ExpStrOrDyn:
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
func (m *matcher) constStr(a argObs, f func([]byte) int) int {
	switch a.kind {
	case argStr:
		return f(m.str(a))
	case argInt, argFn:
		return scContra
	case argBuf:
		return 0
	default:
		return 0
	}
}

// startsWith reports whether s begins with the byte c.
func startsWith(s []byte, c byte) bool { return len(s) > 0 && s[0] == c }

// scoreSig scores one candidate signature against every observed callsite
// of an import, returning the average per-site score (plus cross-site
// bonuses) and whether any site contradicted the signature. Each site's
// arguments are scored against the row's expectations (externs.Sig.Expect);
// arguments past them are unconstrained, and a row that lists none scores
// neutral and wins only by Table-order tie-break, which is the behavior
// wanted for interchangeable helpers.
func (m *matcher) scoreSig(sig *externs.Sig, ob *importObs) (float64, bool) {
	total, contra := 0, false
	for _, site := range ob.sites {
		args := m.argsOf(site)
		for i, e := range sig.Expect {
			if i >= len(args) {
				break
			}
			s := m.scoreArg(e, args[i])
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
func (m *matcher) bonus(sig *externs.Sig, ob *importObs) float64 {
	n := float64(len(ob.sites))
	switch sig.Name {
	case "SSL_write", "CyaSSL_write":
		// A delivery payload buffer is populated elsewhere before the call;
		// a receive buffer is not.
		hits := 0.0
		for _, s := range ob.sites {
			if args := m.argsOf(s); len(args) > 1 && args[1].kind == argBuf && m.writtenBufs[uint32(args[1].ival)] {
				hits++
			}
		}
		return 2 * hits / n
	case "recv", "recvfrom", "recvmsg", "SSL_read", "mqtt_recv":
		hits := 0.0
		for _, s := range ob.sites {
			if args := m.argsOf(s); len(args) > 1 && args[1].kind == argBuf && m.writtenBufs[uint32(args[1].ival)] {
				hits++
			}
		}
		return -2 * hits / n
	case "http_post":
		hits := 0.0
		for _, s := range ob.sites {
			if args := m.argsOf(s); len(args) > 1 && args[1].kind == argStr {
				r := m.str(args[1])
				if bytes.Contains(r, []byte("api")) || bytes.IndexByte(r, '?') >= 0 ||
					bytes.IndexByte(r, '=') >= 0 || bytes.Contains(r, []byte("cgi")) {
					hits++
				}
			}
		}
		return 2 * hits / n
	case "mqtt_publish":
		hits := 0.0
		for _, s := range ob.sites {
			if args := m.argsOf(s); len(args) > 1 && args[1].kind == argStr {
				if r := m.str(args[1]); bytes.Count(r, []byte("/")) >= 3 && bytes.IndexByte(r, '?') < 0 {
					hits++
				}
			}
		}
		return 2 * hits / n
	case "cJSON_CreateObject":
		// The constructor's handle flows into (handle, "key", value) adds
		// or single-argument renders.
		if m.anyConsumer(ob.idx, func(argIdx int, args []argObs) bool {
			return (argIdx == 0 && len(args) >= 2 && args[1].kind == argStr) || len(args) == 1
		}) {
			return 3
		}
		return 0
	case "curl_easy_init":
		if m.anyConsumer(ob.idx, func(argIdx int, args []argObs) bool {
			return argIdx == 0 && len(args) == 3 && args[1].kind == argInt
		}) {
			return 3
		}
		return 0
	case "strcpy", "strncpy":
		return m.writerBonus(ob, true)
	case "strcat", "strncat":
		return m.writerBonus(ob, false)
	}
	return 0
}

// writerBonus rewards overwrite signatures whose destination is always the
// first write to its buffer, and appender signatures whose destination has
// been written before.
func (m *matcher) writerBonus(ob *importObs, wantFirst bool) float64 {
	seen := false
	allFirst := true
	for _, s := range ob.sites {
		if args := m.argsOf(s); len(args) >= 2 && args[0].kind == argBuf {
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

// anyConsumer reports whether a callsite argument fed by the result of
// import idx satisfies ok, visiting them in callsite order and stopping
// at the first that does.
func (m *matcher) anyConsumer(idx int, ok func(argIdx int, args []argObs) bool) bool {
	for i := range m.obs {
		for _, site := range m.obs[i].sites {
			args := m.argsOf(site)
			for k, a := range args {
				if a.kind == argRes && int(a.ref) == idx && ok(k, args) {
					return true
				}
			}
		}
	}
	return false
}

// scored is one import's ranked candidate list.
type scored struct {
	imp        int
	candidates []candScore // descending score, Table-order stable
}

// candScore is one surviving candidate: a signature of the process's
// signature index and its score.
type candScore struct {
	sig   *externs.Sig
	score float64
}

// byScore orders candidates by descending score; a stable sort keeps
// equal scores in Table order.
func byScore(a, b candScore) int { return cmp.Compare(b.score, a.score) }

func isAnchor(r externs.Role) bool {
	return r == externs.RoleRecv || r == externs.RoleSend || r == externs.RoleDeliver
}

// rank scores every compatible signature for one import, appends the
// survivors to cands and sorts what it appended in descending score order
// (Table order on ties).
func (m *matcher) rank(cands []candScore, ix *externs.SigIndex, ob *importObs) []candScore {
	var buf [2]int
	lo := len(cands)
	ix.EachCandidate(ob.arities(&buf), m.bin.Imports[ob.idx].HasResult, func(sig *externs.Sig) {
		avg, contra := m.scoreSig(sig, ob)
		if isAnchor(sig.Role) {
			if contra || avg < anchorFloor {
				return
			}
		} else if avg < 0 {
			return
		}
		cands = append(cands, candScore{sig: sig, score: avg})
	})
	slices.SortStableFunc(cands[lo:], byScore)
	return cands
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

	// Every import's candidates are ranked into one buffer, sized for all
	// the signatures the index offers them, and each import keeps its range.
	n := 0
	for i := range bin.Imports {
		if bin.Imports[i].Name == "" {
			var buf [2]int
			n += ix.NumCandidates(m.obs[i].arities(&buf), bin.Imports[i].HasResult)
		}
	}
	cands := make([]candScore, 0, n)
	ranked := make([]scored, 0, len(bin.Imports))
	for i := range bin.Imports {
		if bin.Imports[i].Name != "" {
			continue // partial strip: keep surviving names authoritative
		}
		st.ExternsTotal++
		lo := len(cands)
		cands = m.rank(cands, ix, &m.obs[i])
		ranked = append(ranked, scored{imp: i, candidates: cands[lo:]})
	}

	// Greedy order: largest top-two margin first, import index as the
	// deterministic tie-break.
	slices.SortStableFunc(ranked, func(a, b scored) int {
		return cmp.Compare(margin(b.candidates), margin(a.candidates))
	})

	var takenBuf [16]string
	taken := takenBuf[:0]
	if len(ranked) > len(takenBuf) {
		taken = make([]string, 0, len(ranked))
	}
	st.Bindings = make([]Binding, 0, len(ranked))
	for _, r := range ranked {
		b := Binding{Import: r.imp, Sites: len(m.obs[r.imp].sites)}
		if sites := m.obs[r.imp].sites; len(sites) > 0 {
			b.Arity = int(sites[0].arity)
		}
		var win, runnerUp *candScore
		for ci := range r.candidates {
			if !slices.Contains(taken, r.candidates[ci].sig.Name) {
				win = &r.candidates[ci]
				for ai := ci + 1; ai < len(r.candidates); ai++ {
					if !slices.Contains(taken, r.candidates[ai].sig.Name) {
						runnerUp = &r.candidates[ai]
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
		taken = append(taken, win.sig.Name)
		bin.Imports[r.imp].Name = win.sig.Name
		bin.Imports[r.imp].NumParams = win.sig.NumParams
		b.Name = win.sig.Name
		b.Confidence = confidence(win.score, runnerUp != nil, r.candidates)
		if runnerUp != nil {
			b.Evidence = fmt.Sprintf("score=%.1f sites=%d runner-up=%s(%.1f)", win.score, b.Sites, runnerUp.sig.Name, runnerUp.score)
		} else {
			b.Evidence = fmt.Sprintf("score=%.1f sites=%d", win.score, b.Sites)
		}
		st.ExternsBound++
		st.Bindings = append(st.Bindings, b)
	}
	slices.SortFunc(st.Bindings, func(a, b Binding) int { return cmp.Compare(a.Import, b.Import) })
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
func confidence(winScore float64, runnerUp bool, cands []candScore) float64 {
	if winScore <= 0 {
		return 0
	}
	mg := winScore
	if runnerUp && len(cands) > 1 {
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
