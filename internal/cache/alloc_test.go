// Allocation counts are only meaningful without race instrumentation.
//go:build !race

package cache

import (
	"bytes"
	"testing"
)

// TestKeyOfOneAlloc holds KeyOf to one allocation, the key string, for a
// full-size fingerprint.
func TestKeyOfOneAlloc(t *testing.T) {
	img := bytes.Repeat([]byte{0xa5}, 4096)
	const fp = "pipeline=v7;classifier=*semantics.KeywordClassifier;stage-timeout=0;lint=true;metrics=false;"
	if n := testing.AllocsPerRun(100, func() { _ = KeyOf(img, fp) }); n > 1 {
		t.Errorf("KeyOf allocates %.0f times per call, want 1", n)
	}
}

// TestVerifyZeroAllocs holds the frame check of every read to no
// allocation.
func TestVerifyZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("{}"), 8192)
	hdr := header(payload)
	entry := append(hdr[:], payload...)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := verify(entry); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("verify allocates %.0f times per entry, want 0", n)
	}
}
