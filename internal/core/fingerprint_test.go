package core

import (
	"reflect"
	"testing"

	"firmres/internal/semantics"
)

// fingerprintExempt lists the Options fields Fingerprint leaves out on
// purpose, with the reason a change to them cannot change a report.
var fingerprintExempt = map[string]string{
	"Workers": "reports are byte-identical at any worker count",
	"Obs":     "span recording never changes a report",
}

// TestFingerprintCoversEveryOption walks every field of Options, nested
// option structs included, by reflection: changing any field must change
// the fingerprint unless the field is exempt with a reason. A new option
// that is not folded into the cache key fails here instead of silently
// sharing cache entries with reports it does not produce.
func TestFingerprintCoversEveryOption(t *testing.T) {
	var o Options
	base := o.Fingerprint()
	if again := o.Fingerprint(); again != base {
		t.Fatalf("fingerprint unstable: %q then %q", base, again)
	}
	checked := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if _, ok := fingerprintExempt[name]; ok {
				continue
			}
			switch {
			case f.Kind() == reflect.Struct:
				walk(name+".", f)
			case !f.CanSet():
				t.Errorf("%s is unexported: fold it into Fingerprint or exempt it", name)
			default:
				old := reflect.New(f.Type()).Elem()
				old.Set(f)
				if !perturb(f) {
					t.Errorf("%s: the test cannot change a %s; teach perturb", name, f.Type())
					continue
				}
				if o.Fingerprint() == base {
					t.Errorf("changing %s leaves the fingerprint unchanged: fold it in or exempt it with a reason", name)
				}
				f.Set(old)
				checked++
			}
		}
	}
	walk("", reflect.ValueOf(&o).Elem())
	t.Logf("%d option fields change the fingerprint", checked)
	if o.Fingerprint() != base {
		t.Fatal("the walk did not restore the options")
	}
}

// perturb sets v to a value other than the default Fingerprint applies,
// reporting false for a kind it cannot change.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		if !perturb(elem) {
			return false
		}
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Pointer:
		if !v.IsNil() {
			return false
		}
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		alt, ok := interfaceAlternatives[v.Type()]
		if !ok {
			return false
		}
		v.Set(reflect.ValueOf(alt))
	default:
		return false
	}
	return true
}

// interfaceAlternatives supplies, per interface-typed option, a value
// other than the default.
var interfaceAlternatives = map[reflect.Type]any{
	reflect.TypeOf((*semantics.Classifier)(nil)).Elem(): &semantics.ModelClassifier{},
}
