// AllocsPerRun counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package taint

import (
	"testing"

	"firmres/internal/asm"
	"firmres/internal/isa"
)

// perMFTAllocBudget is the committed ceiling on heap allocations per
// traced MFT (engine construction amortized in). The measured cost on the
// reference program below is 20, traced through a fresh store: its nodes,
// child lists and MFTs are carved from a few slab chunks, not allocated
// one by one; the headroom absorbs runtime-version drift, not regressions
// — blowing the budget means a hot-path structure started escaping again.
const perMFTAllocBudget = 114

// TestPerMFTAllocBudget pins the allocation cost of the backward-taint
// step: one engine run over a representative two-site program, divided by
// the MFTs it produces. The gate runs in `make check`, so a regression in
// the taint hot path (per-node maps, rendering, worklist churn) fails CI
// rather than silently eroding the batch throughput the scheduler work
// bought.
func TestPerMFTAllocBudget(t *testing.T) {
	a := asm.New("rms_connect")
	buf := a.Bytes("msgbuf", make([]byte, 256))
	hb := a.Bytes("hbbuf", make([]byte, 128))

	f := a.Func("register_device", 1, true)
	f.LAStr(isa.R1, "mac")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R9, isa.R1)
	f.LAStr(isa.R1, "serial_number")
	f.CallImport("nvram_get", 1)
	f.Mov(isa.R10, isa.R1)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, `{"mac":"%s","sn":"%s"}`)
	f.Mov(isa.R3, isa.R9)
	f.Mov(isa.R4, isa.R10)
	f.CallImport("sprintf", 4)
	f.Mov(isa.R2, isa.R1)
	f.LI(isa.R1, 1)
	f.LI(isa.R3, 64)
	f.CallImport("SSL_write", 3)
	f.Ret()

	g := a.Func("heartbeat", 1, true)
	g.LAStr(isa.R1, "uptime")
	g.CallImport("config_read", 1)
	g.Mov(isa.R9, isa.R1)
	g.LA(isa.R1, hb)
	g.LAStr(isa.R2, "hb=%s")
	g.Mov(isa.R3, isa.R9)
	g.CallImport("sprintf", 3)
	g.Mov(isa.R2, isa.R1)
	g.LI(isa.R1, 1)
	g.LI(isa.R3, 32)
	g.CallImport("SSL_write", 3)
	g.Ret()

	prog := liftProgram(t, a)
	warm := analyzeProg(prog, Options{})
	if len(warm) < 2 {
		t.Fatalf("reference program produced %d MFTs, want >= 2", len(warm))
	}

	perRun := testing.AllocsPerRun(50, func() {
		analyzeProg(prog, Options{})
	})
	perMFT := perRun / float64(len(warm))
	t.Logf("taint: %.0f allocs/run, %.0f allocs per MFT (budget %d)",
		perRun, perMFT, perMFTAllocBudget)
	if perMFT > perMFTAllocBudget {
		t.Errorf("per-MFT taint step allocates %.0f, budget %d", perMFT, perMFTAllocBudget)
	}
}
