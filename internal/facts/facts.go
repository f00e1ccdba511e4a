// Package facts is the shared, concurrency-safe store of per-function
// analysis artifacts. Every consumer of a lifted program — handler
// identification, the backward taint engine, the lint passes — needs the
// same derived solutions per function: the control-flow graph, the
// reaching-definitions solution, the dominator tree, and the conditional
// constant-propagation solution. Before this layer each consumer memoized
// them privately, so one pipeline run computed the same CFG or def-use
// solution up to three times per function. A facts.Program computes each
// artifact exactly once via sync.Once single-flight and hands out the
// shared result, which is safe because every underlying solution is
// immutable after construction (built fully inside cfg.Build /
// dataflow.New / constprop.Solve and only queried afterwards).
//
// Ownership rule: a facts.Program is created once per lifted executable
// (core builds it while pinpointing and threads the winner's store through
// the taint and lint stages) and may be shared freely across goroutines.
// Artifacts are never invalidated — a lifted program is immutable, so its
// facts are too.
package facts

import (
	"sync"

	"firmres/internal/binfmt"
	"firmres/internal/callgraph"
	"firmres/internal/cfg"
	"firmres/internal/constprop"
	"firmres/internal/dataflow"
	"firmres/internal/isa"
	"firmres/internal/obs"
	"firmres/internal/pcode"
)

// Artifact kinds, used as the metric label for store hit/miss accounting.
const (
	artCFG = iota
	artDefUse
	artConsts
	artIdom
	artCallGraph
	numArtifacts
)

var artifactNames = [numArtifacts]string{"cfg", "defuse", "consts", "idom", "callgraph"}

// Option configures a store.
type Option func(*Program)

// WithMetrics records store traffic into met: facts_requests_total{artifact}
// counts every artifact access and facts_builds_total{artifact} the subset
// that actually computed (the store's single-flight misses); hits are the
// difference. Counters are pre-resolved here so the per-access cost is one
// atomic add.
func WithMetrics(met *obs.Metrics) Option {
	return func(p *Program) {
		for a := 0; a < numArtifacts; a++ {
			p.reqC[a] = met.Counter("facts_requests_total", "artifact", artifactNames[a])
			p.bldC[a] = met.Counter("facts_builds_total", "artifact", artifactNames[a])
		}
		p.met = met
	}
}

// Program is the artifact store for one lifted executable. Safe for
// concurrent use; the zero value is not valid, use New.
type Program struct {
	prog *pcode.Program

	met        *obs.Metrics
	reqC, bldC [numArtifacts]*obs.Counter // nil counters are no-ops

	cgOnce sync.Once
	cg     *callgraph.Graph

	mu    sync.Mutex
	funcs map[uint32]*Func // keyed by function address
}

// New builds an empty store for prog; artifacts are computed on first use.
func New(prog *pcode.Program, opts ...Option) *Program {
	p := &Program{prog: prog, funcs: make(map[uint32]*Func, len(prog.Funcs))}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Prog returns the underlying lifted program.
func (p *Program) Prog() *pcode.Program { return p.prog }

// Metrics returns the metrics registry the store records into, or nil —
// the handle downstream consumers (identify, taint, lint) count through,
// so one recorder covers every analysis over the executable.
func (p *Program) Metrics() *obs.Metrics { return p.met }

// CallGraph returns the program's call graph, built once.
func (p *Program) CallGraph() *callgraph.Graph {
	p.reqC[artCallGraph].Inc()
	p.cgOnce.Do(func() {
		p.bldC[artCallGraph].Inc()
		p.cg = callgraph.Build(p.prog)
	})
	return p.cg
}

// Release drops every per-function artifact handle the store has
// accumulated, letting the CFG/def-use/constprop solutions of functions
// that were requested once and never again be collected even while the
// store itself stays reachable. The single-flight guarantee is scoped by
// it: artifacts requested after a Release recompute. The caller must
// ensure no artifact request is in flight and no consumer still holds a
// *Func it expects to stay coherent with the store — the intended call
// site is the batch runner between images, after one image's analysis has
// fully quiesced. The program call graph is deliberately kept: it is one
// small artifact per executable, not a per-function accumulation.
func (p *Program) Release() {
	p.mu.Lock()
	p.funcs = make(map[uint32]*Func)
	p.mu.Unlock()
}

// Func returns the per-function artifact handle for fn, creating it on
// first request. The handle is shared: two goroutines asking for the same
// function receive the same *Func, and its artifacts compute single-flight.
func (p *Program) Func(fn *pcode.Function) *Func {
	p.mu.Lock()
	f, ok := p.funcs[fn.Addr()]
	if !ok {
		f = &Func{Prog: p.prog, Fn: fn, store: p}
		p.funcs[fn.Addr()] = f
	}
	p.mu.Unlock()
	return f
}

func stringAt(bin *binfmt.Binary, addr uint32) (string, bool) {
	sym, ok := bin.DataSymAt(addr)
	if !ok || sym.Kind != binfmt.DataString {
		return "", false
	}
	return bin.StringAt(addr)
}

// Func holds the lazily-computed artifacts of one function. All methods
// are safe for concurrent use and return shared, immutable solutions.
type Func struct {
	Prog *pcode.Program
	Fn   *pcode.Function

	store *Program // metric counters; nil for hand-built test handles

	cfgOnce sync.Once
	graph   *cfg.Graph

	duOnce sync.Once
	du     *dataflow.DefUse

	cpOnce sync.Once
	consts *constprop.Result

	idomOnce sync.Once
	idom     []int
}

// count bumps the request counter for one artifact kind and returns the
// build counter for the once-body. Both are no-ops without a store or
// metrics registry.
func (f *Func) count(art int) *obs.Counter {
	if f.store == nil {
		return nil
	}
	f.store.reqC[art].Inc()
	return f.store.bldC[art]
}

// CFG returns the function's control-flow graph.
func (f *Func) CFG() *cfg.Graph {
	bld := f.count(artCFG)
	f.cfgOnce.Do(func() {
		bld.Inc()
		f.graph = cfg.Build(f.Fn)
	})
	return f.graph
}

// DefUse returns the function's reaching-definitions solution.
func (f *Func) DefUse() *dataflow.DefUse {
	bld := f.count(artDefUse)
	f.duOnce.Do(func() {
		bld.Inc()
		f.du = dataflow.New(f.Fn, f.CFG())
	})
	return f.du
}

// Consts returns the function's conditional constant-propagation solution.
func (f *Func) Consts() *constprop.Result {
	bld := f.count(artConsts)
	f.cpOnce.Do(func() {
		bld.Inc()
		f.consts = constprop.Solve(f.Fn, f.CFG())
	})
	return f.consts
}

// Idom returns the function's immediate-dominator tree.
func (f *Func) Idom() []int {
	bld := f.count(artIdom)
	f.idomOnce.Do(func() {
		bld.Inc()
		f.idom = f.CFG().Dominators()
	})
	return f.idom
}

// StringAt resolves a data address to a rodata string. Writable buffers
// (whose first byte is often NUL) are rejected via the data-symbol kind.
func (f *Func) StringAt(addr uint32) (string, bool) {
	return stringAt(f.Prog.Bin, addr)
}

// ConstString resolves the value of v at opIdx to a rodata string constant,
// following copy chains, arithmetic, and stack spills through the
// constant-propagation solution.
func (f *Func) ConstString(opIdx int, v pcode.Varnode) (string, bool) {
	val, ok := f.Consts().ValueAt(opIdx, v)
	if !ok {
		return "", false
	}
	return f.StringAt(uint32(val))
}

// ArgString resolves call argument argIdx at the callsite opIdx to a
// rodata string constant.
func (f *Func) ArgString(opIdx, argIdx int) (string, bool) {
	if argIdx < 0 || argIdx >= isa.NumArgRegs {
		return "", false
	}
	return f.ConstString(opIdx, pcode.Register(isa.ArgReg(argIdx)))
}
