package lint

import (
	"strconv"
	"strings"

	"firmres/internal/isa"
	"firmres/internal/pcode"
	"firmres/internal/slices"
)

// plant is one message-field placement recovered from an assembling
// callsite: a key paired with the varnode carrying its value, plus the
// constant-propagation verdict on that value. It is the lint-side analogue
// of the taint engine's field leaves, but computed forward and cheaply.
type plant struct {
	key      string
	opIdx    int           // assembling callsite op index
	val      pcode.Varnode // varnode carrying the value at the callsite
	via      string        // assembling callee (cJSON_AddStringToObject, sprintf, strcat)
	isConst  bool          // value proven compile-time constant
	constVal string        // rendered constant (rodata string or decimal)
}

// Plants extracts the function's field plants, memoized per context.
func (fc *FuncContext) Plants() []plant {
	if !fc.plantsSet {
		fc.plants = fc.collectPlants()
		fc.plantsSet = true
	}
	return fc.plants
}

func (fc *FuncContext) collectPlants() []plant {
	var out []plant
	// pending maps a concat destination buffer (constant address) to the
	// field key its last constant segment ended with ("...&sn=" -> "sn"):
	// the next strcat into the same buffer carries that field's value.
	pending := map[uint64]string{}
	for i := range fc.Fn.Ops {
		op := &fc.Fn.Ops[i]
		if op.Code != pcode.CALL || op.Call == nil {
			continue
		}
		switch name := op.Call.Name; name {
		case "cJSON_AddStringToObject", "cJSON_AddNumberToObject":
			key, ok := fc.ArgString(i, 1)
			if !ok || key == "" {
				continue
			}
			out = append(out, fc.newPlant(key, i, pcode.Register(isa.ArgReg(2)), name))

		case "sprintf", "snprintf", "printf", "fprintf":
			fmtArg := formatArg(op)
			format, ok := fc.ArgString(i, fmtArg)
			if !ok {
				continue
			}
			argIdx := fmtArg + 1
			formatVerbs(format, func(key string) {
				if key != "" && argIdx < op.Call.Arity && argIdx < isa.NumArgRegs {
					out = append(out, fc.newPlant(key, i, pcode.Register(isa.ArgReg(argIdx)), name))
				}
				argIdx++
			})

		case "strcpy", "strcat":
			dst, ok := fc.Consts().ValueAt(i, pcode.Register(isa.ArgReg(0)))
			if !ok {
				continue
			}
			if seg, isStr := fc.ArgString(i, 1); isStr {
				// A constant segment: a pending key absorbs it as the field
				// value, unless it introduces the next key itself.
				if key := pending[dst]; key != "" && !strings.HasSuffix(seg, "=") {
					p := fc.newPlant(key, i, pcode.Register(isa.ArgReg(1)), name)
					out = append(out, p)
					delete(pending, dst)
					continue
				}
				if key := trailingKey(seg); key != "" {
					pending[dst] = key
				} else {
					delete(pending, dst)
				}
				continue
			}
			if key := pending[dst]; key != "" {
				out = append(out, fc.newPlant(key, i, pcode.Register(isa.ArgReg(1)), name))
				delete(pending, dst)
			}
		}
	}
	return out
}

// newPlant resolves the constness of a field value at its assembling
// callsite. A constant that points into writable data is a buffer, not a
// compile-time value, and stays non-constant.
func (fc *FuncContext) newPlant(key string, opIdx int, val pcode.Varnode, via string) plant {
	p := plant{key: key, opIdx: opIdx, val: val, via: via}
	v, ok := fc.Consts().ValueAt(opIdx, val)
	if !ok {
		return p
	}
	if s, isStr := fc.StringAt(uint32(v)); isStr {
		p.isConst, p.constVal = true, s
		return p
	}
	if !fc.Prog.Bin.InData(uint32(v)) {
		p.isConst, p.constVal = true, strconv.FormatUint(v, 10)
	}
	return p
}

// formatArg returns the argument holding a printf-style call's format,
// which its variadic arguments follow, and -1 for any other call.
func formatArg(op *pcode.Op) int {
	if op.Call == nil || op.Call.Sig == nil {
		return -1
	}
	return op.Call.Sig.Format.Index()
}

// formatVerbs reads a printf format part by part, as the slices stage
// does, and calls verb for each conversion verb in order with the field
// key the literal text before it names ("sn=%s&mac=%s" -> "sn", "mac"; ""
// when that text does not end in "key="). verb may be nil. It returns the
// number of verbs.
func formatVerbs(format string, verb func(key string)) int {
	n, text := 0, ""
	for i := 0; i < len(format); {
		var part slices.Part
		part, i = slices.NextPart(format, i)
		if !part.Verb {
			text = part.Text
			continue
		}
		if verb != nil {
			verb(trailingKey(text))
		}
		n, text = n+1, ""
	}
	return n
}

// trailingKey extracts the identifier ending a "...key=" segment.
func trailingKey(seg string) string {
	s := strings.TrimSuffix(seg, "=")
	if len(s) == len(seg) {
		return ""
	}
	end := len(s)
	start := end
	for start > 0 && isKeyChar(s[start-1]) {
		start--
	}
	return s[start:end]
}

func isKeyChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}
