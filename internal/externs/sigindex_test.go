package externs

import (
	"reflect"
	"testing"
)

func names(sigs []Sig) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s.Name
	}
	return out
}

func TestSigIndexCoversTable(t *testing.T) {
	ix := NewSigIndex()
	total := 0
	for _, k := range ix.Shapes() {
		total += len(ix.Group(k))
	}
	if total != len(Table) {
		t.Errorf("index holds %d signatures, Table has %d", total, len(Table))
	}
}

// TestSigIndexCollisionGroups pins the known behavioral-collision groups:
// externs that a stripped binary can only tell apart by callsite behavior,
// never by shape. If the Table grows, these memberships must stay true for
// the matcher's discriminators (written-buffer bonus, route markers,
// anchor floors) to keep making sense.
func TestSigIndexCollisionGroups(t *testing.T) {
	ix := NewSigIndex()
	tests := []struct {
		shape   Shape
		members []string // must all be present, in Table order
	}{
		// The arity-3-with-result group is the crowded one: recv anchors,
		// deliver anchors, and plain string helpers all collide.
		{Shape{3, true}, []string{"recvmsg", "SSL_read", "sendmsg", "SSL_write",
			"CyaSSL_write", "http_post", "mqtt_publish", "strncpy"}},
		// Single-argument taint origins collide with each other and with
		// allocation — key-universe hints are the only discriminator.
		{Shape{1, true}, []string{"nvram_get", "nvram_safe_get", "config_read",
			"uci_get", "getenv", "web_get_param", "malloc", "time"}},
		// Zero-arity constructors.
		{Shape{0, true}, []string{"curl_easy_init", "cJSON_CreateObject", "rand"}},
		// Variadic formatting family lives in its own shape.
		{Shape{Variadic, true}, []string{"sprintf", "snprintf", "printf", "fprintf"}},
	}
	for _, tt := range tests {
		group := names(ix.Group(tt.shape))
		pos := map[string]int{}
		for i, n := range group {
			pos[n] = i
		}
		last := -1
		for _, m := range tt.members {
			i, ok := pos[m]
			if !ok {
				t.Errorf("shape %+v: expected member %q missing from group %v", tt.shape, m, group)
				continue
			}
			if i < last {
				t.Errorf("shape %+v: %q out of Table order in group %v", tt.shape, m, group)
			}
			last = i
		}
	}
}

func TestSigIndexGroupsAreShapeHomogeneous(t *testing.T) {
	ix := NewSigIndex()
	for _, k := range ix.Shapes() {
		for _, s := range ix.Group(k) {
			if s.NumParams != k.NumParams || s.HasResult != k.HasResult {
				t.Errorf("shape %+v contains mismatched sig %+v", k, s)
			}
		}
	}
}

func TestCandidates(t *testing.T) {
	ix := NewSigIndex()
	tests := []struct {
		name      string
		arities   []int
		hasResult bool
		contains  []string
		excludes  []string
	}{
		{
			name: "no observations, no candidates",
		},
		{
			name: "single arity includes variadic",
			// An import always called with 2 args could still be sprintf.
			arities: []int{2, 2}, hasResult: true,
			contains: []string{"strcpy", "strcat", "mqtt_recv", "sprintf", "printf"},
			excludes: []string{"strncpy", "malloc", "socket"},
		},
		{
			name:    "conflicting arities leave only variadics",
			arities: []int{2, 3, 4}, hasResult: true,
			contains: []string{"sprintf", "snprintf", "printf", "fprintf"},
			excludes: []string{"strcpy", "strncpy", "recv", "SSL_write"},
		},
		{
			name:    "result use is a hard filter",
			arities: []int{2}, hasResult: false,
			contains: []string{"event_register", "uloop_fd_add", "syslog"},
			excludes: []string{"strcpy", "mqtt_recv", "sprintf"},
		},
		{
			name:    "zero arity",
			arities: []int{0}, hasResult: true,
			contains: []string{"curl_easy_init", "cJSON_CreateObject", "rand"},
			excludes: []string{"malloc"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ix.Candidates(tt.arities, tt.hasResult)
			if tt.arities == nil {
				if got != nil {
					t.Fatalf("Candidates(nil) = %v, want none", names(got))
				}
				return
			}
			pos := map[string]int{}
			for i, s := range got {
				pos[s.Name] = i
			}
			for _, want := range tt.contains {
				if _, ok := pos[want]; !ok {
					t.Errorf("candidates missing %q: %v", want, names(got))
				}
			}
			for _, bad := range tt.excludes {
				if _, ok := pos[bad]; ok {
					t.Errorf("candidates wrongly include %q", bad)
				}
			}
		})
	}
}

// TestCandidatesTableOrder checks the merged fixed+variadic candidate list
// is re-sorted to global Table order — the matcher's deterministic
// tie-breaker depends on it.
func TestCandidatesTableOrder(t *testing.T) {
	ix := NewSigIndex()
	got := names(ix.Candidates([]int{2}, true))
	pos := map[string]int{}
	for i, s := range Table {
		pos[s.Name] = i
	}
	for i := 1; i < len(got); i++ {
		if pos[got[i-1]] > pos[got[i]] {
			t.Fatalf("candidates out of Table order: %q after %q in %v",
				got[i], got[i-1], got)
		}
	}
	// sprintf (variadic, Table position before strcpy) must precede strcpy
	// even though they come from different shape groups.
	want := []string{"sprintf", "snprintf", "strcpy"}
	var seen []string
	for _, n := range got {
		for _, w := range want {
			if n == w {
				seen = append(seen, n)
			}
		}
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("variadic/fixed interleave = %v, want %v", seen, want)
	}
}

// candidatesReference is the per-call definition of Candidates: the
// compatible signatures, filtered straight from Table (hence in Table
// order).
func candidatesReference(arities []int, hasResult bool) []Sig {
	if len(arities) == 0 {
		return nil
	}
	distinct := map[int]bool{}
	for _, a := range arities {
		distinct[a] = true
	}
	var out []Sig
	for _, s := range Table {
		if s.HasResult != hasResult {
			continue
		}
		if s.NumParams == Variadic || (len(distinct) == 1 && distinct[s.NumParams]) {
			out = append(out, s)
		}
	}
	return out
}

// TestCandidatesMatchReference compares the precomputed candidate lists
// with the reference over every single arity from 0 to 8 (fixed shapes
// with and without signatures), repeated arities, and mixed arities.
func TestCandidatesMatchReference(t *testing.T) {
	ix := NewSigIndex()
	var cases [][]int
	for a := 0; a <= 8; a++ {
		cases = append(cases, []int{a}, []int{a, a, a}, []int{a, a + 1})
	}
	for _, arities := range cases {
		for _, hasResult := range []bool{false, true} {
			got := ix.Candidates(arities, hasResult)
			want := candidatesReference(arities, hasResult)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Candidates(%v, %v) = %v, want %v", arities, hasResult, names(got), names(want))
			}
		}
	}
}

// TestSigIndexResultsAreCopies: the index is shared process-wide, so a
// caller that mutates a returned slice must not change what the next
// caller sees.
func TestSigIndexResultsAreCopies(t *testing.T) {
	ix := NewSigIndex()
	clobber := func(sigs []Sig) {
		for i := range sigs {
			sigs[i] = Sig{Name: "clobbered"}
		}
	}
	for _, arities := range [][]int{{2}, {2, 3}, {7}} {
		want := names(ix.Candidates(arities, true))
		clobber(ix.Candidates(arities, true))
		if got := names(ix.Candidates(arities, true)); !reflect.DeepEqual(got, want) {
			t.Errorf("Candidates(%v) after mutating a result = %v, want %v", arities, got, want)
		}
	}
	for _, k := range ix.Shapes() {
		want := names(ix.Group(k))
		clobber(ix.Group(k))
		if got := names(ix.Group(k)); !reflect.DeepEqual(got, want) {
			t.Errorf("Group(%+v) after mutating a result = %v, want %v", k, got, want)
		}
	}
}
