package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTextOutputRepeats: two runs with the same flags print byte-identical
// text, and the fleet line ends with its counts, not a run time.
func TestTextOutputRepeats(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		var stderr bytes.Buffer
		if exit := run(&outs[i], &stderr, []string{"-devices", "1-2", "-chaos", "latency", "-seed", "7"}); exit != exitOK {
			t.Fatalf("run %d: exit %d: %s", i, exit, stderr.String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("two runs printed different text:\n--- a ---\n%s--- b ---\n%s", outs[0].String(), outs[1].String())
	}
	_, fleet, _ := strings.Cut(outs[0].String(), "== fleet: ")
	if fleet, _, _ = strings.Cut(fleet, "\n"); !strings.HasSuffix(fleet, " exploitable") {
		t.Errorf("fleet line %q does not end with the exploitable count", fleet)
	}
}
