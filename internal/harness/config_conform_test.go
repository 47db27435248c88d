package harness

import (
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/hier"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestKnobStructsConform pins the uniform surface of every knob struct in
// the pipeline: an Obs field of interface type obs.Observer so one
// assignment instruments the stage, and — on the structs that still resolve
// a default — a value-receiver Normalized() method returning the same type
// (zero fields resolved to documented defaults) that keeps the Observer.
func TestKnobStructsConform(t *testing.T) {
	obsType := reflect.TypeOf((*obs.Observer)(nil)).Elem()
	for _, k := range []struct {
		v          any
		normalized bool
	}{
		{synth.Options{}, true},
		{Config{}, false},
		{flitsim.Config{}, true},
		{floorplan.Options{}, false},
		{nas.Config{}, true},
		{collective.Config{}, true},
		{hier.Options{}, true},
	} {
		typ := reflect.TypeOf(k.v)
		name := typ.String()

		f, ok := typ.FieldByName("Obs")
		if !ok {
			t.Errorf("%s: no Obs field", name)
			continue
		}
		if f.Type != obsType {
			t.Errorf("%s: Obs field has type %v, want %v", name, f.Type, obsType)
		}

		m, ok := typ.MethodByName("Normalized")
		if ok != k.normalized {
			t.Errorf("%s: has a Normalized method = %v, want %v", name, ok, k.normalized)
			continue
		}
		if !ok {
			continue
		}
		if m.Type.NumIn() != 1 || m.Type.NumOut() != 1 || m.Type.Out(0) != typ {
			t.Errorf("%s: Normalized has signature %v, want func() %s on a value receiver",
				name, m.Type, name)
		}

		// Normalizing must not disturb an attached Observer.
		ptr := reflect.New(typ)
		col := obs.NewCollector()
		ptr.Elem().FieldByName("Obs").Set(reflect.ValueOf(col))
		normed := ptr.Elem().Method(m.Index).Call(nil)[0]
		if got := normed.FieldByName("Obs").Interface(); got != obs.Observer(col) {
			t.Errorf("%s: Normalized dropped the Obs field", name)
		}
	}
}
