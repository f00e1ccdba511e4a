package lint

import (
	"fmt"

	"firmres/internal/cfg"
	"firmres/internal/externs"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

func init() {
	MustRegister(&constFieldChecker{
		rule:  "hardcoded-secret",
		desc:  "Dev-Secret-typed field proven compile-time constant (broken access control, §IV-E)",
		class: KeySecret, sev: SevError,
	})
	MustRegister(&constFieldChecker{
		rule:  "const-identifier",
		desc:  "Dev-Identifier-typed field proven compile-time constant (cloneable identity)",
		class: KeyIdentifier, sev: SevWarning,
	})
	MustRegister(&formatArityChecker{})
	MustRegister(&deadStoreChecker{})
	MustRegister(&uncheckedSourceChecker{})
}

// constFieldChecker proves message fields compile-time constant through the
// constant-propagation solution and flags the security-sensitive key
// classes: a constant Dev-Secret is a hard-coded credential, a constant
// Dev-Identifier is cloneable identity. Unlike formcheck's leaf inspection
// this follows values laundered through arbitrary copy chains and spills.
type constFieldChecker struct {
	rule, desc string
	class      KeyKind
	sev        Severity
}

func (c *constFieldChecker) Rule() string        { return c.rule }
func (c *constFieldChecker) Description() string { return c.desc }

func (c *constFieldChecker) Check(fc *FuncContext) []Diagnostic {
	var out []Diagnostic
	for _, p := range fc.Plants() {
		if !p.isConst || KeyClass(p.key) != c.class {
			continue
		}
		out = append(out, Diagnostic{
			Severity: c.sev,
			Addr:     fc.Fn.Ops[p.opIdx].Addr,
			Message: fmt.Sprintf("%s field %q is the compile-time constant %q",
				c.class.String(), p.key, p.constVal),
			Evidence: []string{
				"key=" + p.key,
				fmt.Sprintf("value=%q", p.constVal),
				"via=" + p.via,
			},
		})
	}
	return out
}

// formatArityChecker compares the %-directive count of a constant format
// string against the callsite's variadic argument count.
type formatArityChecker struct{}

func (c *formatArityChecker) Rule() string { return "format-arity" }
func (c *formatArityChecker) Description() string {
	return "printf-style callsite whose format directives disagree with the argument count"
}

func (c *formatArityChecker) Check(fc *FuncContext) []Diagnostic {
	var out []Diagnostic
	for i := range fc.Fn.Ops {
		op := &fc.Fn.Ops[i]
		fmtArg := formatArg(op)
		if fmtArg < 0 {
			continue
		}
		format, ok := fc.ArgString(i, fmtArg)
		if !ok {
			continue
		}
		want := formatVerbs(format, nil)
		got := op.Call.Arity - (fmtArg + 1)
		if got < 0 {
			got = 0
		}
		if want == got {
			continue
		}
		out = append(out, Diagnostic{
			Severity: SevWarning,
			Addr:     op.Addr,
			Message: fmt.Sprintf("%s format %q has %d directive(s) but the callsite passes %d argument(s)",
				op.Call.Name, format, want, got),
			Evidence: []string{
				fmt.Sprintf("format=%q", format),
				fmt.Sprintf("directives=%d", want),
				fmt.Sprintf("args=%d", got),
			},
		})
	}
	return out
}

// deadStoreChecker flags message-buffer stores overwritten by a later store
// to the same resolved address with no intervening load — initialization
// that never reaches the wire. The scan is block-local and drops its
// pending set at calls and unresolvable accesses, so only provably dead
// stores are reported.
type deadStoreChecker struct{}

func (c *deadStoreChecker) Rule() string { return "dead-store" }
func (c *deadStoreChecker) Description() string {
	return "buffer store overwritten before any load reads it"
}

// storeKey identifies a resolved memory cell: a stack slot or an absolute
// data address.
type storeKey struct {
	slot bool
	addr uint64
}

func (c *deadStoreChecker) Check(fc *FuncContext) []Diagnostic {
	var out []Diagnostic
	pending := map[storeKey]int{} // cleared, not rebuilt, at every drop
	for _, blk := range fc.CFG().Blocks {
		clear(pending)
		for i := blk.Start; i < blk.End; i++ {
			op := &fc.Fn.Ops[i]
			switch op.Code {
			case pcode.STORE:
				k, ok := c.cellOf(fc, i)
				if !ok {
					clear(pending)
					continue
				}
				if prev, dup := pending[k]; dup {
					out = append(out, Diagnostic{
						Severity: SevWarning,
						Addr:     fc.Fn.Ops[prev].Addr,
						Message: fmt.Sprintf("store to %s is overwritten at %#x before any load",
							cellName(k), op.Addr),
						Evidence: []string{
							"cell=" + cellName(k),
							fmt.Sprintf("overwrite=%#x", op.Addr),
						},
					})
				}
				pending[k] = i
			case pcode.LOAD:
				if k, ok := c.cellOf(fc, i); ok {
					delete(pending, k)
				} else {
					clear(pending)
				}
			case pcode.CALL, pcode.CALLIND:
				// The callee may read any buffer reachable through memory.
				clear(pending)
			}
		}
	}
	return out
}

// cellOf resolves the memory cell a LOAD/STORE touches: a lifter-resolved
// stack slot, or an effective address the constant solver folds.
func (c *deadStoreChecker) cellOf(fc *FuncContext, opIdx int) (storeKey, bool) {
	if slot, ok := fc.DefUse().Slot(opIdx); ok {
		return storeKey{slot: true, addr: slot.Offset}, true
	}
	op := &fc.Fn.Ops[opIdx]
	if len(op.Inputs) == 0 {
		return storeKey{}, false
	}
	if addr, ok := fc.Consts().ValueAt(opIdx, op.Inputs[0]); ok {
		return storeKey{addr: addr}, true
	}
	return storeKey{}, false
}

func cellName(k storeKey) string {
	if k.slot {
		return fmt.Sprintf("stack slot SP%+d", int32(uint32(k.addr)))
	}
	return fmt.Sprintf("address %#x", k.addr)
}

// uncheckedSourceChecker flags NVRAM/env/config reads whose returned
// pointer is dereferenced or handed to a delivery callsite without a
// dominating null/length check — the crash-on-missing-key pattern. The
// returned value is tracked forward through copies; a comparison involving
// it that terminates a dominating block counts as the guard.
type uncheckedSourceChecker struct{}

func (c *uncheckedSourceChecker) Rule() string { return "unchecked-source" }
func (c *uncheckedSourceChecker) Description() string {
	return "NVRAM/env/config read used without a dominating null check"
}

var sourceFns = map[string]bool{
	"nvram_get": true, "nvram_safe_get": true, "config_read": true,
	"uci_get": true, "getenv": true, "web_get_param": true, "read_file": true,
}

func (c *uncheckedSourceChecker) Check(fc *FuncContext) []Diagnostic {
	var out []Diagnostic
	for i := range fc.Fn.Ops {
		op := &fc.Fn.Ops[i]
		if op.Code != pcode.CALL || op.Call == nil || !op.HasOut || !sourceFns[op.Call.Name] {
			continue
		}
		key, _ := fc.ArgString(i, 0)
		out = append(out, c.checkSource(fc, i, op.Call.Name, key)...)
	}
	return out
}

// checkSource follows one source call's result forward from its definition.
func (c *uncheckedSourceChecker) checkSource(fc *FuncContext, srcIdx int, srcName, srcKey string) []Diagnostic {
	fn := fc.Fn
	g := fc.CFG()
	taint := map[pcode.Varnode]bool{fn.Ops[srcIdx].Output: true}
	var guardBlocks []int

	type riskyUse struct {
		opIdx int
		how   string
	}
	var uses []riskyUse

	for j := srcIdx + 1; j < len(fn.Ops); j++ {
		op := &fn.Ops[j]
		switch op.Code {
		case pcode.COPY:
			if taint[op.Inputs[0]] {
				taint[op.Output] = true
			} else {
				delete(taint, op.Output)
			}
		case pcode.INT_ADD, pcode.INT_SUB:
			// Pointer arithmetic with a constant offset keeps pointing into
			// the sourced value.
			if len(op.Inputs) == 2 && taint[op.Inputs[0]] && op.Inputs[1].IsConst() {
				taint[op.Output] = true
			} else {
				delete(taint, op.Output)
			}
		case pcode.INT_EQUAL, pcode.INT_NOTEQUAL, pcode.INT_SLESS:
			if taint[op.Inputs[0]] || taint[op.Inputs[1]] {
				if blk := g.BlockOf(j); blk != nil {
					guardBlocks = append(guardBlocks, blk.ID)
				}
			}
			delete(taint, op.Output)
		case pcode.LOAD:
			if taint[op.Inputs[0]] {
				uses = append(uses, riskyUse{j, "dereferenced"})
			}
			delete(taint, op.Output)
		case pcode.CALL, pcode.CALLIND:
			if op.Call != nil && op.Call.Sig != nil && op.Call.Sig.Role == externs.RoleDeliver {
				for a := 0; a < op.Call.Arity && a < isa.NumArgRegs; a++ {
					if taint[pcode.Register(isa.ArgReg(a))] {
						uses = append(uses, riskyUse{j, "passed to " + op.Call.Name})
						break
					}
				}
			}
			if op.HasOut {
				delete(taint, op.Output)
			}
		default:
			if op.HasOut {
				delete(taint, op.Output)
			}
		}
	}
	if len(uses) == 0 {
		return nil
	}

	idom := fc.Idom()
	var out []Diagnostic
	for _, u := range uses {
		blk := g.BlockOf(u.opIdx)
		if blk == nil {
			continue
		}
		guarded := false
		for _, gb := range guardBlocks {
			// A comparison terminates its block (the lifter pairs it with
			// the CBRANCH), so a guard protects the use exactly when its
			// block strictly dominates the use's block.
			if gb != blk.ID && cfg.Dominates(idom, gb, blk.ID) {
				guarded = true
				break
			}
		}
		if guarded {
			continue
		}
		what := srcName
		if srcKey != "" {
			what = fmt.Sprintf("%s(%q)", srcName, srcKey)
		}
		out = append(out, Diagnostic{
			Severity: SevWarning,
			Addr:     fn.Ops[u.opIdx].Addr,
			Message:  fmt.Sprintf("result of %s is %s without a dominating null check", what, u.how),
			Evidence: []string{
				"source=" + srcName,
				"key=" + srcKey,
				"use=" + u.how,
			},
		})
	}
	return out
}
