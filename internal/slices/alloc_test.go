// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package slices

import (
	"testing"

	"firmres/internal/taint"
)

// TestFormatPartsCopyNothing pins that reading a format's parts copies
// nothing: verbSegment returns a substring of the format, building a
// string only when the text it returns holds a "%%" escape, and NextPart
// walks a format without one at no allocation.
func TestFormatPartsCopyNothing(t *testing.T) {
	arg := &taint.Node{Kind: taint.NodeArg, ArgLabel: "arg3"} // verb 1
	for _, tc := range []struct {
		format, want string
		allocs       float64
	}{
		{"mac=%s&sn=%s", "&sn=", 0},
		{"100%%=%s&sn=%s", "&sn=", 0},
		{"a=%s&100%%=%s", "&100%=", 1},
	} {
		if got, ok := verbSegment(tc.format, arg); !ok || got != tc.want {
			t.Fatalf("verbSegment(%q, arg3) = %q, %v; want %q", tc.format, got, ok, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { verbSegment(tc.format, arg) }); n != tc.allocs {
			t.Errorf("verbSegment(%q, arg3) allocates %v times, want %v", tc.format, n, tc.allocs)
		}
	}
	format := "mac=%s&sn=%02x trailing %"
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < len(format); {
			_, i = NextPart(format, i)
		}
	}); n != 0 {
		t.Errorf("walking %q with NextPart allocates %v times, want 0", format, n)
	}
}
