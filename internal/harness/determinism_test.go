package harness

import (
	"reflect"
	"testing"
)

// TestDeterminismHarnessWorkers runs whole experiments at both ends of the
// worker range and requires identical row sets: the fan-out must never
// change a published table.
func TestDeterminismHarnessWorkers(t *testing.T) {
	serial := Quick()
	serial.Workers = 1
	par := Quick()
	par.Workers = 8

	t.Run("Figure7", func(t *testing.T) {
		a, err := serial.Figure7("small")
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Figure7("small")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Figure7 rows differ between Workers:1 and Workers:8\nserial:  %+v\nparallel: %+v", a, b)
		}
	})
	t.Run("Sensitivity", func(t *testing.T) {
		a, err := serial.Sensitivity(sensBenchmarks, 16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Sensitivity(sensBenchmarks, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Sensitivity rows differ between Workers:1 and Workers:8\nserial:  %+v\nparallel: %+v", a, b)
		}
	})
	t.Run("Ablations", func(t *testing.T) {
		a, err := serial.Ablations("CG", 16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Ablations("CG", 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Ablation rows differ between Workers:1 and Workers:8\nserial:  %+v\nparallel: %+v", a, b)
		}
	})
}
