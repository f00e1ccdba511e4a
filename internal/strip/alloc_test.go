// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package strip_test

import (
	"runtime"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/corpus"
	"firmres/internal/strip"
)

// recoverAllocBudget is the committed ceiling on heap bytes allocated per
// Recover, averaged over every binary executable of the 22-device corpus
// stripped of its symbols. The measured cost is about 9.9 KB: what Recover
// hands back (the rebuilt symbol tables, the lookup index, the bindings
// and their evidence) plus one decoded text segment, one array each of
// callsites and arguments, and one candidate buffer per binary. The
// headroom absorbs runtime-version drift, not regressions — blowing the
// budget means per-callsite or per-candidate garbage (a slice per argument
// list, a map per function, a copy per recovered string, a second text
// scan, a sort that allocates) is back.
const recoverAllocBudget = 12e3

// strippedCorpus returns every binary executable of the 22-device corpus
// with the key universes its device's configuration files carry.
func strippedCorpus(t testing.TB) (truths []*binfmt.Binary, hints []strip.Hints) {
	t.Helper()
	for id := 1; id <= 22; id++ {
		d := corpus.Device(id)
		img, err := corpus.BuildImage(d)
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		h := hintsFor(d)
		for i := range img.Files {
			f := &img.Files[i]
			if !f.IsExec() || !f.IsBinary() {
				continue
			}
			truth, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				t.Fatalf("device %d %s: %v", id, f.Path, err)
			}
			truths = append(truths, truth)
			hints = append(hints, h)
		}
	}
	return truths, hints
}

// TestRecoverAllocBudget pins the heap bytes of one symbol-free recovery:
// every corpus binary is stripped with Strip outside the measurement, and
// one pass of Recover over all of them is measured after a warm-up pass
// has built what the process builds once (the signature index).
func TestRecoverAllocBudget(t *testing.T) {
	truths, hints := strippedCorpus(t)
	pass := func() uint64 {
		bins := make([]*binfmt.Binary, len(truths))
		for i, b := range truths {
			bins[i] = b.Strip()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i, b := range bins {
			strip.Recover(b, hints[i])
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	pass()
	perRecover := float64(pass()) / float64(len(truths))
	t.Logf("Recover: %.0f B per binary over %d binaries (budget %.0f)", perRecover, len(truths), recoverAllocBudget)
	if perRecover > recoverAllocBudget {
		t.Errorf("Recover allocates %.0f B per stripped binary, budget %.0f", perRecover, recoverAllocBudget)
	}
}
