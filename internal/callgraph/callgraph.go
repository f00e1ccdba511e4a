// Package callgraph builds the whole-binary call graph over a lifted
// program and answers the queries the FIRMRES pipeline needs:
//
//   - caller/callee adjacency (taint backtracing, §IV-B propagation rules);
//   - callsite lookup by callee name (anchor-node discovery, §IV-A);
//   - shortest call-graph distances and paths between functions (pairing of
//     fun_in/fun_out anchors and handler-sequence extraction, Fig. 4).
package callgraph

import (
	"sort"
	"sync/atomic"

	"firmres/internal/pcode"
)

// Edge is one resolved direct call.
type Edge struct {
	Caller *pcode.Function
	Callee *pcode.Function
	Site   pcode.CallSite
}

// Graph is the call graph of one program. Every adjacency is a dense array
// grouped by pcode.Function.Index (import callsites by import), CSR-style:
// the callees of function i are out[outAt[i]:outAt[i+1]], and so on. Init
// rebuilds a graph in its own arrays, so rebuilding the call graph of a
// recycled program allocates nothing.
type Graph struct {
	Prog *pcode.Program

	out  []Edge           // edges by caller, in program order
	in   []Edge           // edges by callee, each callee's in program order
	refs []pcode.CallSite // function address materialized as a constant (callback registration), by function
	imps []pcode.CallSite // import callsites, by the first import of their name

	outAt, inAt, refAt []int32 // per function: nfuncs+1 offsets
	impAt              []int32 // per import: nimports+1 offsets
	group              []int32 // import index -> the first import of its name
	offsets            []int32 // the storage of the five tables above

	// bfs is the scratch of Path and Distance, taken by swapping taken; a
	// query that finds it taken makes its own.
	bfs   []int32
	taken atomic.Bool
}

// Build constructs the call graph in storage of its own.
func Build(prog *pcode.Program) *Graph {
	g := new(Graph)
	g.Init(prog)
	return g
}

// Init builds the call graph of prog into g, reusing the arrays g holds. A
// counting pass sizes every array, and a second pass fills the groups.
func (g *Graph) Init(prog *pcode.Program) {
	g.Prog = prog
	nf, imports := len(prog.Funcs), prog.Bin.Imports
	ni := len(imports)
	g.offsets = fit(g.offsets, 3*(nf+1)+2*ni+1)
	t := g.offsets
	g.outAt, g.inAt, g.refAt, t = t[:nf+1], t[nf+1:2*nf+2], t[2*nf+2:3*nf+3], t[3*nf+3:]
	g.impAt, g.group = t[:ni+1], t[ni+1:]
	for i := range imports {
		g.group[i] = int32(i)
		for j := range imports[:i] {
			if imports[j].Name == imports[i].Name {
				g.group[i] = g.group[j]
				break
			}
		}
	}

	nedges, nrefs, nimps := 0, 0, 0
	g.walk(func(k kind, e Edge) {
		switch k {
		case call:
			g.outAt[e.Caller.Index()+1]++
			g.inAt[e.Callee.Index()+1]++
			nedges++
		case ref:
			g.refAt[e.Callee.Index()+1]++
			nrefs++
		case imported:
			g.impAt[g.importGroup(e.Site)+1]++
			nimps++
		}
	})
	for _, at := range [][]int32{g.outAt, g.inAt, g.refAt, g.impAt} {
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
	}
	g.out, g.in = fit(g.out, nedges), fit(g.in, nedges)
	g.refs, g.imps = fit(g.refs, nrefs), fit(g.imps, nimps)
	// Each group's offset serves as its fill cursor, which leaves it at
	// the start of the next group; shifting the table back restores it.
	g.walk(func(k kind, e Edge) {
		switch k {
		case call:
			g.out[place(g.outAt, e.Caller.Index())] = e
			g.in[place(g.inAt, e.Callee.Index())] = e
		case ref:
			g.refs[place(g.refAt, e.Callee.Index())] = e.Site
		case imported:
			g.imps[place(g.impAt, g.importGroup(e.Site))] = e.Site
		}
	})
	for _, at := range [][]int32{g.outAt, g.inAt, g.refAt, g.impAt} {
		copy(at[1:], at[:len(at)-1])
		at[0] = 0
	}
	g.bfs = fit(g.bfs, 2*nf)
	g.taken.Store(false)
}

// kind tells walk's facts apart.
type kind uint8

const (
	call     kind = iota // a direct call: Caller, Callee and Site
	ref                  // Site materializes Callee's address
	imported             // Site calls an import
)

// walk calls visit for every call-graph fact of the program, in program
// order.
func (g *Graph) walk(visit func(kind, Edge)) {
	prog := g.Prog
	for _, f := range prog.Funcs {
		for i := range f.Ops {
			op := &f.Ops[i]
			site := pcode.CallSite{Fn: f, OpIdx: i}
			// Track function addresses materialized as constants: these are
			// callback registrations (event_register(&handler, ...)), the
			// implicit-invocation channel of §IV-A.
			if op.Code == pcode.COPY && len(op.Inputs) == 1 && op.Inputs[0].IsConst() {
				if callee, ok := prog.FuncAt(uint32(op.Inputs[0].Offset)); ok {
					visit(ref, Edge{Callee: callee, Site: site})
				}
			}
			if op.Call == nil {
				continue
			}
			switch op.Call.Kind {
			case pcode.CallLocal:
				if callee, ok := prog.FuncAt(op.Call.Addr); ok {
					visit(call, Edge{Caller: f, Callee: callee, Site: site})
				}
			case pcode.CallImported:
				visit(imported, Edge{Site: site})
			}
		}
	}
}

// importGroup returns the group of an import callsite: the first import of
// the callee's name.
func (g *Graph) importGroup(site pcode.CallSite) int {
	return int(g.group[site.Op().Call.Import])
}

// place returns the next free slot of group i and advances its cursor.
func place(at []int32, i int) int {
	at[i]++
	return int(at[i] - 1)
}

func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// index returns f's position in the graph's program, or -1 for a function
// of another program.
func (g *Graph) index(f *pcode.Function) int {
	if f == nil {
		return -1
	}
	if i := f.Index(); i < len(g.Prog.Funcs) && g.Prog.Funcs[i] == f {
		return i
	}
	return -1
}

// Edges returns all resolved direct-call edges.
func (g *Graph) Edges() []Edge { return g.out }

// Callees returns the outgoing edges of f.
func (g *Graph) Callees(f *pcode.Function) []Edge {
	if i := g.index(f); i >= 0 {
		return g.out[g.outAt[i]:g.outAt[i+1]]
	}
	return nil
}

// Callers returns the incoming edges of f.
func (g *Graph) Callers(f *pcode.Function) []Edge {
	if i := g.index(f); i >= 0 {
		return g.in[g.inAt[i]:g.inAt[i+1]]
	}
	return nil
}

// ImportCallSites returns the callsites invoking the named import.
func (g *Graph) ImportCallSites(name string) []pcode.CallSite {
	for i, imp := range g.Prog.Bin.Imports {
		if imp.Name == name {
			if sites := g.imps[g.impAt[i]:g.impAt[i+1]]; len(sites) > 0 {
				return sites
			}
			return nil
		}
	}
	return nil
}

// ImportNames returns the sorted names of imports with at least one callsite.
func (g *Graph) ImportNames() []string {
	out := make([]string, 0, len(g.Prog.Bin.Imports))
	for i, imp := range g.Prog.Bin.Imports {
		if g.impAt[i+1] > g.impAt[i] {
			out = append(out, imp.Name)
		}
	}
	sort.Strings(out)
	return out
}

// AddressTaken returns the sites where f's address is materialized as a
// constant (callback registration), excluding direct calls.
func (g *Graph) AddressTaken(f *pcode.Function) []pcode.CallSite {
	if i := g.index(f); i >= 0 {
		return g.refs[g.refAt[i]:g.refAt[i+1]]
	}
	return nil
}

// HasDirectCaller reports whether any function directly calls f.
func (g *Graph) HasDirectCaller(f *pcode.Function) bool { return len(g.Callers(f)) > 0 }

// Distance returns the length of the shortest undirected call-graph path
// between two functions, or -1 when they are disconnected. The paper pairs
// fun_in/fun_out anchor callsites "by their closest distances on the call
// graph"; undirected distance is the natural metric because the anchors sit
// in callees on both sides of the handler's spine.
func (g *Graph) Distance(a, b *pcode.Function) int {
	d := -1
	g.search(a, b, func(prev []int32, ai, bi int) {
		for d = 0; bi != ai; d++ {
			bi = int(prev[bi])
		}
	})
	return d
}

// Path returns the functions along one shortest undirected path from a to b,
// inclusive of both endpoints, or nil when disconnected. The result is the
// "function call sequence" S of §IV-A over which the string-parsing factor
// is maximized.
func (g *Graph) Path(a, b *pcode.Function) []*pcode.Function {
	var path []*pcode.Function
	g.search(a, b, func(prev []int32, ai, bi int) {
		n := 1
		for i := bi; i != ai; i = int(prev[i]) {
			n++
		}
		path = make([]*pcode.Function, n)
		for i := bi; ; i = int(prev[i]) {
			n--
			path[n] = g.Prog.Funcs[i]
			if i == ai {
				break
			}
		}
	})
	return path
}

// search runs a breadth-first search over undirected call edges from a,
// callees before callers, until it reaches b, and then calls found with
// every reached function's predecessor on the search tree (indexed by
// function) and the endpoints' indices. It does not call found when b is
// unreachable.
func (g *Graph) search(a, b *pcode.Function, found func(prev []int32, ai, bi int)) {
	ai, bi := g.index(a), g.index(b)
	if ai < 0 || bi < 0 {
		return
	}
	if a.Addr() == b.Addr() {
		found(nil, ai, ai)
		return
	}
	nf := len(g.Prog.Funcs)
	scratch := g.bfs
	own := g.taken.CompareAndSwap(false, true)
	if !own {
		scratch = make([]int32, 2*nf)
	}
	prev, queue := scratch[:nf], scratch[nf:]
	for i := range prev {
		prev[i] = -1
	}
	prev[ai], queue[0] = int32(ai), int32(ai)
	reached := false
	for head, tail := 0, 1; head < tail && !reached; head++ {
		cur := int(queue[head])
		visit := func(nb int) {
			if reached || prev[nb] >= 0 {
				return
			}
			prev[nb] = int32(cur)
			if nb == bi {
				reached = true
				return
			}
			queue[tail] = int32(nb)
			tail++
		}
		for _, e := range g.out[g.outAt[cur]:g.outAt[cur+1]] {
			visit(e.Callee.Index())
		}
		for _, e := range g.in[g.inAt[cur]:g.inAt[cur+1]] {
			visit(e.Caller.Index())
		}
	}
	if reached {
		found(prev, ai, bi)
	}
	if own {
		g.taken.Store(false)
	}
}
