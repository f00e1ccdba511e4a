package externs

import (
	"reflect"
	"testing"
)

func TestTableUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Table {
		if seen[s.Name] {
			t.Errorf("duplicate extern %q", s.Name)
		}
		seen[s.Name] = true
		if s.NumParams != Variadic && (s.NumParams < 0 || s.NumParams > 6) {
			t.Errorf("%s: arity %d outside calling convention", s.Name, s.NumParams)
		}
	}
}

func TestLookup(t *testing.T) {
	s, ok := Lookup("sprintf")
	if !ok || s.NumParams != Variadic || !s.HasResult {
		t.Errorf("Lookup(sprintf) = %+v, %v", s, ok)
	}
	if _, ok := Lookup("not_a_function"); ok {
		t.Error("Lookup invented a function")
	}
}

func TestRoleSets(t *testing.T) {
	recv := ByRole(RoleRecv)
	if len(recv) == 0 {
		t.Fatal("no recv anchors")
	}
	for _, name := range recv {
		if !IsRecv(name) {
			t.Errorf("IsRecv(%s) = false for RoleRecv member", name)
		}
		if s, _ := Lookup(name); len(s.Deliver) > 0 {
			t.Errorf("recv anchor %s classified as delivery", name)
		}
	}
	for _, name := range ByRole(RoleDeliver) {
		if s, _ := Lookup(name); len(s.Deliver) == 0 || !IsSend(name) {
			t.Errorf("delivery %s misclassified", name)
		}
	}
	// IPC functions are neither recv nor send anchors.
	if IsRecv("ipc_recv") || IsSend("ipc_send") {
		t.Error("IPC functions classified as network anchors")
	}
}

// messageArg returns the argument that carries a delivery call's message,
// its last traced argument, and whether name traces any.
func messageArg(name string) (int, bool) {
	s, ok := Lookup(name)
	if !ok || len(s.Deliver) == 0 {
		return 0, false
	}
	return s.Deliver[len(s.Deliver)-1].Index, true
}

func TestMessageArg(t *testing.T) {
	tests := []struct {
		name string
		arg  int
		ok   bool
	}{
		{"SSL_write", 1, true},
		{"http_post", 2, true},
		{"mosquitto_publish", 3, true},
		{"mqtt_publish", 2, true},
		{"curl_easy_perform", 0, true},
		{"send", 1, true},
		{"recv", 0, false},
		{"strcpy", 0, false},
	}
	for _, tt := range tests {
		arg, ok := messageArg(tt.name)
		if ok != tt.ok || (ok && arg != tt.arg) {
			t.Errorf("messageArg(%s) = %d, %v; want %d, %v", tt.name, arg, ok, tt.arg, tt.ok)
		}
	}
}

func TestEveryDeliveryHasMessageArg(t *testing.T) {
	for _, name := range ByRole(RoleDeliver) {
		if _, ok := messageArg(name); !ok {
			t.Errorf("delivery function %s has no message-argument mapping", name)
		}
	}
}

// TestTableModel checks every row's facets against its arity: each
// argument a facet names is below the arity unless the extern is variadic,
// a fixed-arity row states an expectation for every argument, and every
// RoleDeliver row traces a delivery argument. A row that names an argument
// its calls do not pass, or forgets what symbol recovery should expect of
// one, fails here rather than degrading a stripped binary's bindings.
//
// The behavior-equivalent pairs symbol recovery cannot tell apart must
// carry the same model apart from their names, so that a stripped twin's
// verdicts agree with the symbol-full binary's whichever name of a pair it
// binds.
func TestTableModel(t *testing.T) {
	for _, s := range Table {
		var args []int
		for _, d := range s.Deliver {
			args = append(args, d.Index)
		}
		if w := s.Write; w != nil {
			args = append(append(args, w.Dst), w.Deps...)
		}
		if r := s.Return; r != nil {
			args = append(args, r.Deps...)
			if r.Key != NoArg {
				args = append(args, r.Key.Index())
			}
			if (r.Key != NoArg) != (r.Source != SrcNone && r.Source != SrcDynamic && r.Source != SrcAlloc) {
				t.Errorf("%s: a return source names its key exactly when it is keyed: %+v", s.Name, *r)
			}
		}
		if s.Format != NoArg {
			args = append(args, s.Format.Index())
		}
		switch s.JSON {
		case JSONAdd, JSONAddItem:
			args = append(args, 0, 1, 2) // (object, key, value)
		case JSONPrint:
			args = append(args, 0)
		}
		for _, a := range args {
			if a < 0 || s.NumParams != Variadic && a >= s.NumParams {
				t.Errorf("%s: a facet names argument %d of a %d-argument extern", s.Name, a, s.NumParams)
			}
		}
		switch {
		case s.NumParams != Variadic && len(s.Expect) != s.NumParams:
			t.Errorf("%s: %d expectations for %d arguments", s.Name, len(s.Expect), s.NumParams)
		case s.NumParams == Variadic && len(s.Expect) <= s.Format.Index():
			t.Errorf("%s: expectations stop before the format argument %d", s.Name, s.Format.Index())
		}
		if s.Role == RoleDeliver && len(s.Deliver) == 0 {
			t.Errorf("%s: a delivery extern traces no delivery argument", s.Name)
		}
	}

	for _, pair := range [][2]string{
		{"nvram_get", "nvram_safe_get"},
		{"config_read", "uci_get"},
		{"cJSON_Print", "cJSON_PrintUnformatted"},
		{"SSL_write", "CyaSSL_write"},
		{"strdup", "urlencode"},
	} {
		a, okA := Lookup(pair[0])
		b, okB := Lookup(pair[1])
		if !okA || !okB {
			t.Fatalf("pair %v is not in the Table", pair)
		}
		x, y := *a, *b
		x.Name, y.Name = "", ""
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s and %s differ beyond their names:\n%+v\n%+v", pair[0], pair[1], x, y)
		}
	}
}
