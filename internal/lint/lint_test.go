package lint

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/facts"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// liftProg assembles a program and lifts it for the runner.
func liftProg(t *testing.T, build func(*asm.Assembler)) *pcode.Program {
	t.Helper()
	a := asm.New("t")
	build(a)
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

// runRules lints the program with the given rules (all when empty).
func runRules(t *testing.T, prog *pcode.Program, rules ...string) []Diagnostic {
	t.Helper()
	r, err := NewRunner(rules)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r.RunFacts(context.Background(), facts.New(prog), "/bin/test", 1)
}

// wantRules asserts the exact (rule, function) multiset of the diagnostics.
func wantRules(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, d.Rule+"@"+d.Function)
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostics = %v, want %v", got, want)
		}
	}
}

// TestHardcodedSecretMultiHop: a constant secret laundered through two
// intermediate registers still proves constant — the case a single
// reaching-definition lookup misses.
func TestHardcodedSecretMultiHop(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		f := a.Func("build_auth", 0, true)
		f.CallImport("cJSON_CreateObject", 0)
		f.Mov(isa.R12, isa.R1)
		f.LAStr(isa.R9, "hunter2-master")
		f.Mov(isa.R13, isa.R9) // hop 1
		f.Mov(isa.R3, isa.R13) // hop 2
		f.Mov(isa.R1, isa.R12)
		f.LAStr(isa.R2, "secret")
		f.CallImport("cJSON_AddStringToObject", 3)
		f.LI(isa.R1, 0)
		f.Ret()
	})
	diags := runRules(t, prog)
	wantRules(t, diags, "hardcoded-secret@build_auth")
	d := diags[0]
	if d.Severity != SevError {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if !strings.Contains(d.Message, "hunter2-master") {
		t.Errorf("message lacks the constant value: %q", d.Message)
	}
	if d.Executable != "/bin/test" {
		t.Errorf("executable = %q", d.Executable)
	}
}

// TestSecretFromConfigIsClean: the same shape with a runtime config read is
// not a finding.
func TestSecretFromConfigIsClean(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		f := a.Func("build_auth", 0, true)
		f.CallImport("cJSON_CreateObject", 0)
		f.Mov(isa.R12, isa.R1)
		f.LAStr(isa.R1, "device_secret")
		f.CallImport("config_read", 1)
		f.Mov(isa.R13, isa.R1)
		f.Mov(isa.R1, isa.R12)
		f.LAStr(isa.R2, "secret")
		f.Mov(isa.R3, isa.R13)
		f.CallImport("cJSON_AddStringToObject", 3)
		f.LI(isa.R1, 0)
		f.Ret()
	})
	wantRules(t, runRules(t, prog))
}

// TestConstIdentifierViaStrcat: a constant serial number concatenated after
// a "sn=" segment classifies as const-identifier through the strcat
// pending-key channel.
func TestConstIdentifierViaStrcat(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		buf := a.Bytes("buf", make([]byte, 64))
		f := a.Func("build_reg", 0, true)
		f.LA(isa.R1, buf)
		f.LAStr(isa.R2, "sn=")
		f.CallImport("strcpy", 2)
		f.LAStr(isa.R9, "SN-0001")
		f.Mov(isa.R2, isa.R9)
		f.LA(isa.R1, buf)
		f.CallImport("strcat", 2)
		f.LI(isa.R1, 0)
		f.Ret()
	})
	diags := runRules(t, prog)
	wantRules(t, diags, "const-identifier@build_reg")
	if diags[0].Severity != SevWarning {
		t.Errorf("severity = %v, want warning", diags[0].Severity)
	}
}

// TestSprintfPlantSecret: a constant token formatted behind "token=%s"
// classifies through the format-string channel.
func TestSprintfPlantSecret(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		buf := a.Bytes("buf", make([]byte, 64))
		f := a.Func("build_beacon", 0, true)
		f.LAStr(isa.R9, "tok-fixed-1")
		f.LA(isa.R1, buf)
		f.LAStr(isa.R2, "v=1&token=%s")
		f.Mov(isa.R3, isa.R9)
		f.CallImport("sprintf", 3)
		f.LI(isa.R1, 0)
		f.Ret()
	})
	wantRules(t, runRules(t, prog), "hardcoded-secret@build_beacon")
}

func TestFormatArity(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		buf := a.Bytes("buf", make([]byte, 64))
		bad := a.Func("fmt_bad", 0, true)
		bad.LA(isa.R1, buf)
		bad.LAStr(isa.R2, "seq=%s&chan=%s")
		bad.LAStr(isa.R3, "7")
		bad.CallImport("sprintf", 3) // 2 directives, 1 argument
		bad.LI(isa.R1, 0)
		bad.Ret()

		good := a.Func("fmt_good", 0, true)
		good.LA(isa.R1, buf)
		good.LAStr(isa.R2, "seq=%s 100%%")
		good.LAStr(isa.R3, "7")
		good.CallImport("sprintf", 3)
		good.LI(isa.R1, 0)
		good.Ret()
	})
	diags := runRules(t, prog, "format-arity")
	wantRules(t, diags, "format-arity@fmt_bad")
	if !strings.Contains(diags[0].Message, "2 directive(s)") ||
		!strings.Contains(diags[0].Message, "1 argument(s)") {
		t.Errorf("message = %q", diags[0].Message)
	}
}

func TestDeadStore(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		g := a.Bytes("g", make([]byte, 64))

		bad := a.Func("stats_bad", 0, true)
		bad.LA(isa.R5, g)
		bad.LI(isa.R6, 7)
		bad.SW(isa.R5, 8, isa.R6)
		bad.LI(isa.R6, 9)
		bad.SW(isa.R5, 8, isa.R6) // overwrites the first store, never read
		bad.LI(isa.R1, 0)
		bad.Ret()

		good := a.Func("stats_good", 0, true)
		good.LA(isa.R5, g)
		good.LI(isa.R6, 7)
		good.SW(isa.R5, 8, isa.R6)
		good.LW(isa.R7, isa.R5, 8) // read in between
		good.LI(isa.R6, 9)
		good.SW(isa.R5, 8, isa.R6)
		good.LI(isa.R1, 0)
		good.Ret()

		distinct := a.Func("stats_distinct", 0, true)
		distinct.LA(isa.R5, g)
		distinct.LI(isa.R6, 7)
		distinct.SW(isa.R5, 8, isa.R6)
		distinct.SW(isa.R5, 12, isa.R6) // different cell
		distinct.LI(isa.R1, 0)
		distinct.Ret()
	})
	wantRules(t, runRules(t, prog, "dead-store"), "dead-store@stats_bad")
}

func TestUncheckedSourceDeref(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		bad := a.Func("sync_bad", 0, true)
		bad.LAStr(isa.R1, "device_mac")
		bad.CallImport("nvram_get", 1)
		bad.Mov(isa.R9, isa.R1)
		bad.LB(isa.R2, isa.R9, 0) // deref, no guard anywhere
		bad.LI(isa.R1, 0)
		bad.Ret()

		good := a.Func("sync_good", 0, true)
		skip := good.NewLabel()
		good.LAStr(isa.R1, "device_mac")
		good.CallImport("nvram_get", 1)
		good.Mov(isa.R9, isa.R1)
		good.LI(isa.R10, 0)
		good.Beq(isa.R9, isa.R10, skip) // null check dominates the deref
		good.LB(isa.R2, isa.R9, 0)
		good.Bind(skip)
		good.LI(isa.R1, 0)
		good.Ret()
	})
	diags := runRules(t, prog, "unchecked-source")
	wantRules(t, diags, "unchecked-source@sync_bad")
	if !strings.Contains(diags[0].Message, `nvram_get("device_mac")`) {
		t.Errorf("message = %q", diags[0].Message)
	}
}

// TestUncheckedSourceDelivery: the sourced value reaching a delivery
// callsite unguarded is also flagged.
func TestUncheckedSourceDelivery(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		f := a.Func("push_raw", 0, true)
		f.LAStr(isa.R1, "mac")
		f.CallImport("nvram_get", 1)
		f.Mov(isa.R3, isa.R1)
		f.LI(isa.R1, 0)
		f.LAStr(isa.R2, "/push")
		f.CallImport("http_post", 3)
		f.LI(isa.R1, 0)
		f.Ret()
	})
	diags := runRules(t, prog, "unchecked-source")
	wantRules(t, diags, "unchecked-source@push_raw")
	if !strings.Contains(diags[0].Message, "http_post") {
		t.Errorf("message = %q", diags[0].Message)
	}
}

func TestRunnerRuleSelection(t *testing.T) {
	if _, err := NewRunner([]string{"no-such-rule"}); err == nil {
		t.Error("unknown rule accepted")
	}
	r, err := NewRunner(nil)
	if err != nil {
		t.Fatalf("NewRunner(nil): %v", err)
	}
	if len(r.checkers) != len(Rules()) {
		t.Errorf("default runner has %d checkers, want %d", len(r.checkers), len(Rules()))
	}
	want := []string{"const-identifier", "dead-store", "format-arity", "hardcoded-secret", "unchecked-source"}
	got := Rules()
	if len(got) != len(want) {
		t.Fatalf("Rules() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rules() = %v, want %v", got, want)
		}
	}
}

func TestDedupe(t *testing.T) {
	d := Diagnostic{Rule: "r", Executable: "/e", Function: "f", Addr: 8, Message: "m"}
	out := Dedupe([]Diagnostic{d, d, {Rule: "r", Executable: "/e", Function: "f", Addr: 4, Message: "m"}})
	if len(out) != 2 {
		t.Fatalf("Dedupe kept %d, want 2", len(out))
	}
	if out[0].Addr != 4 || out[1].Addr != 8 {
		t.Errorf("order = %v", out)
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	diags := []Diagnostic{{
		Rule: "hardcoded-secret", Severity: SevError, Executable: "/bin/cloudd",
		Function: "f", Addr: 0x40, Message: "m", Evidence: []string{"key=secret"},
	}}
	if err := WriteSARIF(&buf, diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	s := buf.String()
	for _, want := range []string{`"2.1.0"`, "hardcoded-secret", "/bin/cloudd", "firmres-lint"} {
		if !strings.Contains(s, want) {
			t.Errorf("SARIF output lacks %q", want)
		}
	}
}
