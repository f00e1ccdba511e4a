// Package externs is the model of the external (libc-like) functions that
// synthetic firmware programs import: one Table row per extern holds every
// fact an analysis knows about it, and no analysis keeps a table of its own
// keyed by extern name.
//
// A row's facets, and who reads them:
//
//   - name, arity and result use: the assembler (internal/asm) registers
//     imports and validates arity; the P-Code lifter (internal/pcode)
//     derives CALL inputs and outputs, and resolves each imported call's
//     row once, onto its pcode.CallTarget, where every later analysis
//     reads it;
//   - Role: executable identification's anchors (internal/identify),
//     lint's unchecked-source check, the report decoder's shared strings,
//     and semantics' signing-step evidence (RoleCrypto);
//   - Deliver, Write, Return and JSON: the taint engine's function
//     summaries for library calls (internal/taint, §IV-B);
//   - Format: lint's printf checks, and for a writer the taint engine's
//     variadic dependencies and the format it records on the MFT node;
//   - Expect: symbol recovery's behavioural callsite matching
//     (internal/strip), through the name-blind SigIndex.
//
// This plays the role of the libc function-signature models that real
// binary-analysis frameworks ship.
package externs

// Variadic marks a function whose arity is fixed per callsite rather than
// per signature (e.g. sprintf). The callsite encodes the actual argument
// count.
const Variadic = -1

// Role classifies the part an external function plays in the FIRMRES
// analyses.
type Role uint8

// Function roles.
const (
	RoleNone    Role = iota // no special meaning
	RoleRecv                // request-incoming function (fun_in anchors)
	RoleSend                // response-outgoing function (fun_out anchors)
	RoleDeliver             // device-cloud message delivery (SSL, HTTP and MQTT publishers)
	RoleString              // string/formatting helper
	RoleJSON                // cJSON-style message assembly
	RoleNVRAM               // NVRAM read (taint sink origin: NVRAM)
	RoleConfig              // configuration-file read (taint sink origin: config)
	RoleEnv                 // environment / front-end input (taint sink origin: env)
	RoleFile                // file I/O (Dev-Secret tracking: Variable=Function(Constant))
	RoleEvent               // event-loop registration (asynchronous handler hookup)
	RoleCrypto              // key derivation / signing helpers
	RoleIPC                 // local inter-process communication (negative anchors)
	RoleMisc                // allocation, time, logging, sockets, ...
)

// Arg names one argument of a call by position: At(i) is argument i, and
// the zero Arg, NoArg, names none.
type Arg uint8

// NoArg names no argument.
const NoArg Arg = 0

// At returns the Arg of the zero-based argument i.
func At(i int) Arg { return Arg(i + 1) }

// Index returns the zero-based position a names, -1 for NoArg.
func (a Arg) Index() int { return int(a) - 1 }

// Traced is one argument of a delivery call that carries message content:
// a taint source of §IV-B, and the label its MFT branch carries.
type Traced struct {
	Index int
	Label string
}

// Write summarises a call that writes message content through a
// destination pointer argument (the sprintf family, strcpy and strcat,
// crypto into a buffer). Such a call also returns its destination. The
// written content derives from Deps and, for a printf-style writer, from
// its Format argument and every argument after it.
type Write struct {
	Dst    int   // the destination pointer's argument
	Deps   []int // the arguments the written content derives from
	Append bool  // the call appends to the buffer's content instead of replacing it
}

// Source classifies a return value that is a message-field source itself.
type Source uint8

// Return-value sources.
const (
	SrcNone    Source = iota // derived from the summary's Deps
	SrcNVRAM                 // a value read from NVRAM
	SrcConfig                // a value read from a configuration store
	SrcEnv                   // environment or front-end input
	SrcFile                  // content read from a file
	SrcDynamic               // a runtime-generated value (time, rand)
	SrcAlloc                 // a fresh allocation, whose content later calls write
)

// Return summarises what a call's return value is.
type Return struct {
	Deps   []int  // the arguments a derived value derives from
	Source Source // the source the value is; SrcNone when it derives from Deps
	Key    Arg    // the argument holding a source's key or path
}

// JSONKind classifies the calls of cJSON-style message assembly.
type JSONKind uint8

// cJSON kinds. JSONAdd and JSONAddItem calls take (object, key, value),
// JSONPrint calls take the object alone.
const (
	JSONNone    JSONKind = iota
	JSONNew              // returns a fresh object
	JSONAdd              // adds a key whose value is the third argument
	JSONAddItem          // adds a key whose value is a nested object
	JSONPrint            // renders the object as text
)

// Expect is what a callsite is expected to pass in one argument of an
// extern: symbol recovery scores the argument shapes it observes in a
// stripped binary against a row's expectations.
type Expect uint8

// Callsite expectations.
const (
	ExpAny       Expect = iota
	ExpInt              // constant integer
	ExpZero             // constant zero (flags-style trailing argument)
	ExpPosInt           // constant positive integer (length/size argument)
	ExpStr              // constant string
	ExpRoute            // constant string shaped like a wire route: starts '/' or '?'
	ExpFmt              // constant format string (contains '%')
	ExpHost             // constant hostname: contains '.', no '/'
	ExpKeyNVRAM         // constant string matched against the NVRAM key universe
	ExpKeyConfig        // constant string matched against the config key universe
	ExpKeyEnv           // constant string outside both key universes (front-end param)
	ExpKeyPath          // constant string shaped like a filesystem path
	ExpBuf              // pointer to a writable data object
	ExpFn               // pointer into the text segment (callback)
	ExpDyn              // computed value or call result (payload-style)
	ExpHandle           // connection-style value: parameter or call result
	ExpRes              // result of a preceding call
	ExpResJSON          // result of a zero-arity constructor (cJSON object handle)
	ExpStrOrDyn         // string constant or computed value
)

// Sig is the model of one external function: its Table row.
type Sig struct {
	Name      string
	NumParams int // Variadic for printf-style functions
	HasResult bool
	Role      Role
	JSON      JSONKind
	// Format is the argument holding a printf-style format; the variadic
	// arguments its directives consume follow it.
	Format Arg
	// Deliver lists, in argument order, the arguments a call sends to the
	// cloud; the last is the message itself.
	Deliver []Traced
	Write   *Write  // nil unless the call writes through a pointer
	Return  *Return // nil when the return value is not summarized
	// Expect lists what each leading argument of a callsite is expected to
	// look like; a variadic row constrains only the arguments it lists.
	Expect []Expect
}

var byName = func() map[string]*Sig {
	m := make(map[string]*Sig, len(Table))
	for i := range Table {
		m[Table[i].Name] = &Table[i]
	}
	return m
}()

// Lookup returns the Table row of an external function name, which the
// caller must not modify.
func Lookup(name string) (*Sig, bool) {
	s, ok := byName[name]
	return s, ok
}

// ByRole returns the names of all functions with the given role,
// in Table order.
func ByRole(role Role) []string {
	var out []string
	for _, s := range Table {
		if s.Role == role {
			out = append(out, s.Name)
		}
	}
	return out
}

// IsRecv reports whether name is a request-incoming anchor function.
func IsRecv(name string) bool {
	s, ok := byName[name]
	return ok && s.Role == RoleRecv
}

// IsSend reports whether name is a response-outgoing anchor function
// (including the richer delivery wrappers, which also emit traffic).
func IsSend(name string) bool {
	s, ok := byName[name]
	return ok && (s.Role == RoleSend || s.Role == RoleDeliver)
}
