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
// immutable after construction (built fully inside the in-place builds of
// cfg, dataflow, constprop and callgraph, and only queried afterwards).
//
// Handles are a slice indexed by pcode.Function.Index, filled when the
// store is made, so looking one up takes no lock and reads no map. Every
// per-function artifact is carved from slabs the store owns (see slabs),
// and the call graph is rebuilt in arrays of its own. The layers above
// keep what they build for the program, its message trees among it, in
// the store too: each in a scratch slot of its own (Scratch), carved from
// slabs of the layer's. One allocator serves all of it and the lifted
// program: slab.Slab, sized by what the set served, with no guess at a
// cold program's needs.
//
// Ownership rule: a store belongs to one lifted executable and lives
// exactly as long as its program; it may be shared freely across
// goroutines, and its artifacts are never invalidated. Lift and Release
// recycle the two together, as one set, through one free list per
// process: Lift lifts a binary into a set and returns its store, and the
// set's one owner hands it back with Release once nothing reads the
// program, the store or anything taken from either. After that a store
// pointer, a handle or a function pointer may name another program, so
// nothing may cache by one across a release. New builds a store over a
// program lifted elsewhere, in fresh slabs that are never recycled.
package facts

import (
	"sync"
	"sync/atomic"

	"firmres/internal/binfmt"
	"firmres/internal/callgraph"
	"firmres/internal/cfg"
	"firmres/internal/constprop"
	"firmres/internal/dataflow"
	"firmres/internal/isa"
	"firmres/internal/obs"
	"firmres/internal/parallel"
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
// concurrent use; the zero value is not valid, use New or Lift.
type Program struct {
	prog *pcode.Program

	met        *obs.Metrics
	reqC, bldC [numArtifacts]*obs.Counter // nil counters are no-ops

	cgOnce sync.Once
	cg     callgraph.Graph

	funcs []Func // the handles, indexed by pcode.Function.Index
	ops   int    // the program's ops over all functions
	slabs slabs  // the storage every per-function artifact is carved from

	scratch [numSlots]slot // the later layers' state for the program (Scratch)

	lifted pcode.Program // a set's program; prog points here
}

// New builds an empty store for prog; artifacts are computed on first use.
// Its slabs are fresh, and nothing recycles them.
func New(prog *pcode.Program, opts ...Option) *Program {
	p := new(Program)
	p.init(prog, opts)
	return p
}

// init readies p for prog: options applied and one fresh handle per
// function.
func (p *Program) init(prog *pcode.Program, opts []Option) {
	p.prog = prog
	for _, o := range opts {
		o(p)
	}
	n := len(prog.Funcs)
	if cap(p.funcs) < n {
		p.funcs = make([]Func, n)
	}
	p.funcs = p.funcs[:n]
	p.ops = 0
	for i, fn := range prog.Funcs {
		p.funcs[i] = Func{Prog: prog, Fn: fn, store: p}
		p.ops += len(fn.Ops)
	}
}

// recycle empties a released set for its next program: the handles and
// metrics are dropped, the call graph and the scratches are kept for it,
// and the slabs, the program's and the scratches' included, are cleared
// and consolidated. With scrub, everything released is overwritten
// instead.
func (p *Program) recycle(scrub bool) {
	p.lifted.Recycle(scrub)
	p.prog, p.met = nil, nil
	p.reqC, p.bldC = [numArtifacts]*obs.Counter{}, [numArtifacts]*obs.Counter{}
	p.cgOnce = sync.Once{}
	clear(p.funcs[:cap(p.funcs)])
	if scrub {
		p.cg = callgraph.Graph{}
	}
	for i := range p.scratch {
		sl := &p.scratch[i]
		sl.once = sync.Once{}
		if sl.s != nil {
			sl.s.Recycle(scrub)
		}
	}
	p.slabs.recycle(scrub)
}

// Scratch is the state a layer above the store keeps for the analysis of
// its program in the layer's slot: taint's nodes, mft's simplified trees
// and path lists, slices' slice lists, semantics' enrichment, fields'
// field lists and core's per-message lists, each carved from slabs of
// the layer's own. The store holds it, so a set keeps its scratch for its
// next program instead of leaving it to the garbage collector.
type Scratch interface {
	// Recycle empties the scratch once nothing reads the set's program:
	// a release calls it, with scrub while ScrubReleased is on, in which
	// case it overwrites what the scratch holds with garbage first.
	Recycle(scrub bool)
}

// Slot names the scratch of one layer above the store.
type Slot int

// The slots of a set, one per layer that keeps scratch in it.
const (
	SlotTaint     Slot = iota // taint: trace nodes, child lists and MFTs
	SlotTrees                 // mft: simplified trees, path lists and split MFTs
	SlotSlices                // slices: slice lists and their steps
	SlotSemantics             // semantics: the Enricher
	SlotFields                // fields: field lists and messages
	SlotCore                  // core: slice-info and message-result lists
	numSlots
)

// slot is one layer's scratch and the once that readies it per program.
type slot struct {
	once sync.Once
	s    Scratch
}

// Scratch returns the scratch in slot. The first call for each program
// the store serves passes ready the scratch the set kept in the slot from
// an earlier program, nil if it has none, and keeps what ready returns
// for the program; every later call returns that. Safe for concurrent
// use.
func (p *Program) Scratch(slot Slot, ready func(p *Program, old Scratch) Scratch) Scratch {
	sl := &p.scratch[slot]
	sl.once.Do(func() { sl.s = ready(p, sl.s) })
	return sl.s
}

// Reuse is the ready function of a scratch that needs no readying for a
// program: it hands back the *S the set kept from an earlier program, or
// a new one.
func Reuse[S any, PS interface {
	*S
	Scratch
}](_ *Program, old Scratch) Scratch {
	if s, ok := old.(PS); ok {
		return s
	}
	return PS(new(S))
}

// Prog returns the underlying lifted program.
func (p *Program) Prog() *pcode.Program { return p.prog }

// Ops returns the number of ops of the program over all its functions.
func (p *Program) Ops() int { return p.ops }

// Metrics returns the metrics registry the store records into, or nil —
// the handle downstream consumers (identify, taint, lint) count through,
// so one recorder covers every analysis over the executable.
func (p *Program) Metrics() *obs.Metrics { return p.met }

// CallGraph returns the program's call graph, built once.
func (p *Program) CallGraph() *callgraph.Graph {
	p.reqC[artCallGraph].Inc()
	p.cgOnce.Do(func() {
		p.bldC[artCallGraph].Inc()
		p.cg.Init(p.prog)
	})
	return &p.cg
}

// Func returns the artifact handle of fn. The handle is shared: two
// goroutines asking for the same function receive the same *Func, and its
// artifacts compute single-flight. fn must be a function of the store's
// program; any other is a bug, and Func panics.
func (p *Program) Func(fn *pcode.Function) *Func {
	if i := fn.Index(); uint(i) < uint(len(p.funcs)) && p.funcs[i].Fn == fn {
		return &p.funcs[i]
	}
	panic("facts: function " + fn.Name() + " is not of this store's program")
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

	store *Program // counters and slabs

	cfgOnce, duOnce, cpOnce, idomOnce sync.Once

	graph  cfg.Graph
	du     dataflow.DefUse
	consts constprop.Result
	idom   []int
}

// count bumps the request counter for one artifact kind and returns the
// build counter for the once-body. Both are no-ops without a metrics
// registry.
func (f *Func) count(art int) *obs.Counter {
	f.store.reqC[art].Inc()
	return f.store.bldC[art]
}

// CFG returns the function's control-flow graph.
func (f *Func) CFG() *cfg.Graph {
	bld := f.count(artCFG)
	f.cfgOnce.Do(func() {
		bld.Inc()
		f.graph.Init(f.Fn, &f.store.slabs)
	})
	return &f.graph
}

// DefUse returns the function's reaching-definitions solution.
func (f *Func) DefUse() *dataflow.DefUse {
	bld := f.count(artDefUse)
	f.duOnce.Do(func() {
		bld.Inc()
		f.du.Init(f.Fn, f.CFG(), &f.store.slabs)
	})
	return &f.du
}

// Consts returns the function's conditional constant-propagation solution.
func (f *Func) Consts() *constprop.Result {
	bld := f.count(artConsts)
	f.cpOnce.Do(func() {
		bld.Inc()
		f.consts.Init(f.Fn, f.CFG(), &f.store.slabs)
	})
	return &f.consts
}

// Idom returns the function's immediate-dominator tree.
func (f *Func) Idom() []int {
	bld := f.count(artIdom)
	f.idomOnce.Do(func() {
		bld.Inc()
		f.idom = f.CFG().DominatorsIn(&f.store.slabs)
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

// sets is the process's free list of sets. A set is one lifted program
// plus the storage of all its facts artifacts and its scratches, recycled
// together because they live together. Every analysis in the process
// lifts through the one list, so a batch call starts with the sets its
// predecessors released instead of growing its own; like every
// parallel.FreeList it keeps two sets per processor, what a worker holds
// at once (the set it lifts into and the candidate pinpoint keeps), so a
// warm process stays warm at every worker count, and it leaves any
// further release to the garbage collector.
var sets parallel.FreeList[*Program]

// scrubSets makes Release overwrite released storage (ScrubReleased).
var scrubSets atomic.Bool

// Lift lifts every function symbol of the binary into a set, recycled
// from the process's free list when it holds one, and returns the set's
// store over it.
func Lift(bin *binfmt.Binary, opts ...Option) (*Program, error) {
	p, ok := sets.Get()
	if !ok {
		p = new(Program)
	}
	if err := p.lifted.Lift(bin); err != nil {
		p.prog = &p.lifted
		p.Release()
		return nil, err
	}
	p.init(&p.lifted, opts)
	return p, nil
}

// Release hands the set of p, a store Lift returned, back for reuse: the
// next Lift reuses the program's slabs, shells and index maps, the
// store's handles, slabs and call-graph arrays, and every layer's
// scratch, instead of allocating them. Every slab of the set is cleared
// on the way (scrubbed while ScrubReleased is on), so an idle set pins
// nothing of its last program. Only the set's owner may release
// it, once: nothing may read p, a handle, artifact or scratch taken from
// it, its program, or any function, op, varnode or call target of the
// program afterwards, nor anything a layer carved from its scratch: an
// MFT traced through the store, a tree, path list, slice or field list
// built from one. A store New built is not a set, and Release ignores
// it, as it ignores nil.
func (p *Program) Release() {
	if p == nil || p.prog != &p.lifted {
		return
	}
	p.recycle(scrubSets.Load())
	sets.Put(p)
}

// ScrubReleased sets whether Release overwrites each released set's
// storage with garbage — the program's, every facts artifact's and every
// scratch's, message trees included — so a reader that still holds a
// released set computes nonsense instead of a plausible stale answer, and
// returns the previous setting. Tests turn it on to prove that nothing outlives its release,
// and restore it: defer facts.ScrubReleased(facts.ScrubReleased(true)).
func ScrubReleased(on bool) bool { return scrubSets.Swap(on) }
