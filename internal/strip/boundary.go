// Package strip recovers the symbol information the analysis pipeline needs
// when a binary arrives stripped: function boundaries, string data objects,
// and extern (import) identities.
//
// Real crawled firmware routinely ships without symbol tables, while the
// FIRMRES analyses (identification anchors, taint summaries, semantics
// enrichment) are keyed by exact function extents and extern names. This
// package plays the role Ghidra's auto-analysis plus signature matching
// (FLIRT/argXtract-style) play for real binaries:
//
//   - function-boundary recovery seeds entry points from direct call
//     targets and address-taken code constants, grows bodies by
//     control-flow reachability until a return or the next seed, and
//     gap-fills unreached text to a fixpoint;
//   - string recovery rebuilds DataString symbols from printable runs in
//     the data segment (the taint engine's constant-leaf gate);
//   - extern identification fingerprints each nameless import by callsite
//     behavior and matches it against a name-blind signature index derived
//     from the internal/externs table (see match.go).
package strip

import (
	"fmt"

	"firmres/internal/binfmt"
	"firmres/internal/isa"
)

// region is one recovered function extent, in instruction-slot units.
type region struct {
	start, end int // [start, end) slots
}

// textScan is the decoded view of a text segment: one slot per 8-byte
// instruction, with undecodable slots marked invalid (treated as opaque
// terminators so hostile padding cannot derail recovery).
type textScan struct {
	base   uint32
	instrs []isa.Instruction
	valid  []bool
}

func scanText(bin *binfmt.Binary) *textScan {
	n := len(bin.Text) / isa.InstrSize
	ts := &textScan{base: bin.TextBase, instrs: make([]isa.Instruction, n), valid: make([]bool, n)}
	for i := 0; i < n; i++ {
		in, err := isa.Decode(bin.Text[i*isa.InstrSize:])
		if err == nil {
			ts.instrs[i], ts.valid[i] = in, true
		}
	}
	return ts
}

// slotOf maps an absolute text address to its instruction slot, or -1 for
// addresses outside the segment or misaligned.
func (ts *textScan) slotOf(addr uint32) int {
	if addr < ts.base {
		return -1
	}
	off := addr - ts.base
	if off%isa.InstrSize != 0 {
		return -1
	}
	slot := int(off / isa.InstrSize)
	if slot >= len(ts.instrs) {
		return -1
	}
	return slot
}

// recoverBoundaries rebuilds the function symbol table of a stripped binary.
//
// Seeds are the only addresses proven to be function entries: the text base,
// every direct-call target, and every code address materialized as a
// constant (address-taken functions — the event-handler registration idiom).
// Each seed grows by CFG reachability: fallthrough, branch and jump targets,
// stopping at returns and at other seeds (a jump landing on another entry is
// a tail call, not a body extension). Text no seed reaches — functions that
// are never called nor address-taken — is gap-filled: the first unclaimed
// slot after the claimed regions becomes a new seed, and the whole growth
// repeats until every slot is claimed.
func recoverBoundaries(bin *binfmt.Binary) []binfmt.FuncSym {
	ts := scanText(bin)
	n := len(ts.instrs)
	if n == 0 {
		return nil
	}

	seeds := make([]bool, n)
	seeds[0] = true
	for i := 0; i < n; i++ {
		if !ts.valid[i] {
			continue
		}
		in := ts.instrs[i]
		switch in.Op {
		case isa.OpCall:
			if s := ts.slotOf(uint32(in.Imm)); s >= 0 {
				seeds[s] = true
			}
		case isa.OpLI, isa.OpLA:
			// A code address loaded as a constant is an address-taken
			// function (callback registration); data/immediate values fall
			// outside the text range and are ignored.
			if s := ts.slotOf(uint32(in.Imm)); s >= 0 {
				seeds[s] = true
			}
		}
	}

	var regions []region
	g := &grower{ts: ts, seeds: seeds, stamp: make([]uint32, n)}
	for {
		regions = g.growAll(regions[:0])
		gap := firstUnclaimed(regions, n)
		if gap < 0 {
			break
		}
		seeds[gap] = true
	}

	syms := make([]binfmt.FuncSym, 0, len(regions))
	for _, r := range regions {
		addr := ts.base + uint32(r.start*isa.InstrSize)
		syms = append(syms, binfmt.FuncSym{
			Name:      fmt.Sprintf("fn_%06x", addr),
			Addr:      addr,
			Size:      uint32((r.end - r.start) * isa.InstrSize),
			NumParams: inferArity(bin, ts, r),
			// Result use is not observable at the definition site; assume a
			// result so callers that do consume R1 stay analyzable. The
			// RETURN-op input this adds is harmless to backward taint.
			HasResult: true,
		})
	}
	return syms
}

// grower grows seeds into regions. Its scratch is reused across every
// walk of one recovery: a slot is visited in the current walk when its
// stamp equals gen, so starting a walk is one increment, not a fresh set.
type grower struct {
	ts    *textScan
	seeds []bool // per slot: proven function entry
	stamp []uint32
	gen   uint32
	work  []int
}

// growAll grows every seed and appends the claimed regions to regions in
// address order.
func (g *grower) growAll(regions []region) []region {
	for s, next := g.nextSeed(0), 0; s >= 0; s = next {
		next = g.nextSeed(s + 1)
		end := len(g.ts.instrs)
		if next >= 0 {
			end = next
		}
		regions = append(regions, g.grow(s, end))
	}
	return regions
}

// nextSeed returns the first seed slot at or after from, or -1.
func (g *grower) nextSeed(from int) int {
	for s := from; s < len(g.seeds); s++ {
		if g.seeds[s] {
			return s
		}
	}
	return -1
}

// grow walks the CFG from seed and returns its contiguous extent, clamped to
// the next seed.
func (g *grower) grow(seed, next int) region {
	ts := g.ts
	g.gen++
	work := append(g.work[:0], seed)
	max := seed
	push := func(s int) {
		// Another seed is another function: a branch or fallthrough onto it
		// is a tail call / boundary, never a body extension.
		if s < 0 || s >= len(ts.instrs) || g.stamp[s] == g.gen || (s != seed && g.seeds[s]) {
			return
		}
		g.stamp[s] = g.gen
		work = append(work, s)
	}
	g.stamp[seed] = g.gen
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if s > max {
			max = s
		}
		if !ts.valid[s] {
			continue // undecodable: opaque terminator
		}
		in := ts.instrs[s]
		switch {
		case in.Op == isa.OpRet:
			// terminator
		case in.Op == isa.OpJmp:
			push(ts.slotOf(uint32(in.Imm)))
		case in.Op.IsBranch():
			push(ts.slotOf(uint32(in.Imm)))
			push(s + 1)
		default:
			push(s + 1)
		}
	}
	g.work = work
	end := max + 1
	if end > next {
		end = next
	}
	return region{start: seed, end: end}
}

// firstUnclaimed returns the first slot no region covers, or -1 when the
// whole text is claimed. Regions are address-ordered and non-overlapping by
// construction (each is clamped at the next seed).
func firstUnclaimed(regions []region, n int) int {
	at := 0
	for _, r := range regions {
		if r.start > at {
			return at
		}
		if r.end > at {
			at = r.end
		}
	}
	if at < n {
		return at
	}
	return -1
}

// inferArity recovers a function's parameter count by liveness: an argument
// register (R1..R6) read before any definition along the address-ordered
// body must have carried an incoming value. This under-approximates
// functions that forward untouched parameters straight into calls, which no
// downstream analysis depends on.
func inferArity(bin *binfmt.Binary, ts *textScan, r region) int {
	defined := map[isa.Reg]bool{isa.R0: true}
	maxArg := 0
	readReg := func(reg isa.Reg) {
		if defined[reg] {
			return
		}
		if reg >= isa.R1 && reg < isa.R1+isa.NumArgRegs {
			if n := int(reg-isa.R1) + 1; n > maxArg {
				maxArg = n
			}
		}
	}
	for s := r.start; s < r.end; s++ {
		if !ts.valid[s] {
			continue
		}
		in := ts.instrs[s]
		switch in.Op {
		case isa.OpLI, isa.OpLA:
			defined[in.Rd] = true
		case isa.OpMov, isa.OpAddI, isa.OpLW, isa.OpLB:
			readReg(in.Rs1)
			defined[in.Rd] = true
		case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv,
			isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
			readReg(in.Rs1)
			readReg(in.Rs2)
			defined[in.Rd] = true
		case isa.OpSW, isa.OpSB, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			readReg(in.Rs1)
			readReg(in.Rs2)
		case isa.OpCallI:
			arity := int(in.Rs1)
			if idx := int(in.Imm); idx >= 0 && idx < len(bin.Imports) {
				if np := bin.Imports[idx].NumParams; np >= 0 {
					arity = np
				}
			}
			for i := 0; i < arity && i < isa.NumArgRegs; i++ {
				readReg(isa.ArgReg(i))
			}
			defined[isa.R1] = true
		case isa.OpCallR:
			readReg(in.Rs1)
			for i := 0; i < int(in.Rd) && i < isa.NumArgRegs; i++ {
				readReg(isa.ArgReg(i))
			}
			defined[isa.R1] = true
		case isa.OpCall:
			// Callee arity unknown at this point; treat as defining the
			// result register only.
			defined[isa.R1] = true
		}
	}
	return maxArg
}

// recoverStrings rebuilds DataString symbols from the raw data segment: a
// maximal run of printable bytes (ASCII 0x20..0x7e plus tab/newline/CR)
// terminated by NUL is a string constant. Zero-filled writable buffers
// produce no runs and correctly stay symbol-free — the negative space the
// taint engine's constant-leaf gate depends on.
func recoverStrings(bin *binfmt.Binary) []binfmt.DataSym {
	printable := func(b byte) bool {
		return (b >= 0x20 && b <= 0x7e) || b == '\t' || b == '\n' || b == '\r'
	}
	var syms []binfmt.DataSym
	data := bin.Data
	for i := 0; i < len(data); {
		if !printable(data[i]) {
			i++
			continue
		}
		j := i
		for j < len(data) && printable(data[j]) {
			j++
		}
		if j < len(data) && data[j] == 0 {
			syms = append(syms, binfmt.DataSym{
				Addr: bin.DataBase + uint32(i),
				Size: uint32(j - i + 1), // include the NUL, matching the assembler
				Kind: binfmt.DataString,
			})
			j++
		}
		i = j
	}
	return syms
}
