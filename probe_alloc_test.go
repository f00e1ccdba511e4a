// Allocation counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"testing"

	"firmres/internal/corpus"
)

// TestCorpusSpecForAllocBound: resolving one device's probe spec costs
// about what building that one device's spec costs — the lookup must not
// synthesize the rest of the corpus to find it.
func TestCorpusSpecForAllocBound(t *testing.T) {
	for _, id := range []int{1, 20} {
		d := corpus.Device(id)
		device, version := d.Vendor+" "+d.Model, d.Version
		want := testing.AllocsPerRun(5, func() { corpus.CloudSpec(corpus.Device(id)) })
		got := testing.AllocsPerRun(5, func() { corpusSpecFor(device, version) })
		if got > want+2 {
			t.Errorf("device %d: spec lookup allocates %v times, building its spec alone %v", id, got, want)
		}
	}
}
