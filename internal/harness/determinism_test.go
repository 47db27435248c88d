package harness

import (
	"reflect"
	"testing"
)

// TestDeterminismHarnessWorkers runs whole experiments at both ends of the
// worker range and requires identical row sets: the fan-out — over cells,
// and over the stages inside a Figure 8, collective or chiplet cell — must
// never change a published table.
func TestDeterminismHarnessWorkers(t *testing.T) {
	for _, exp := range []struct {
		name string
		run  func(Config) (any, error)
	}{
		{"Figure7", func(c Config) (any, error) { return c.Figure7("small") }},
		{"Sensitivity", func(c Config) (any, error) { return c.Sensitivity(sensBenchmarks, 16) }},
		{"Ablations", func(c Config) (any, error) { return c.Ablations("CG", 16) }},
		{"Figure8", func(c Config) (any, error) { return c.Figure8("small") }},
		{"Collectives", func(c Config) (any, error) { return c.Collectives(8) }},
		{"Chiplet", func(c Config) (any, error) { return c.Chiplet("CG", 16, 4) }},
	} {
		t.Run(exp.name, func(t *testing.T) {
			serial := Quick()
			serial.Workers = 1
			par := Quick()
			par.Workers = 8
			a, err := exp.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := exp.run(par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s rows differ between Workers:1 and Workers:8\nserial:  %+v\nparallel: %+v", exp.name, a, b)
			}
		})
	}
}
