package harness

import "testing"

// TestContentionExperimentsPinned holds the four experiments that build C and
// R themselves — rather than reading synth's verdict — to the rows they
// rendered when C and R were map-backed pair sets.
func TestContentionExperimentsPinned(t *testing.T) {
	c := Quick()
	for _, tc := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"Walkthrough", func() (string, error) {
			w, err := c.Walkthrough()
			if err != nil {
				return "", err
			}
			return w.Render(), nil
		}, `Section 3.4 walkthrough on the Figure 1 CG-16 pattern
maximum clique set size:           3 (paper: 3)
Cut 1 links (fast / formal):       4 / 4 (paper: 4)
Cut 2 links (fast / formal):       3 / 3 (paper: 3)
final network: 5 switches, 4 links, max degree 5 (constraint 5)
constraints met: true, contention-free (Theorem 1): true
floorplan: switch area 5 vs mesh 16, link area 5 vs mesh 24
`},
		{"ColoringQuality", func() (string, error) {
			rows, err := c.ColoringQuality(nil)
			return RenderColoringQuality(rows), err
		}, `Section 3.3: Fast_Color vs formal coloring over generated pipes
bench  procs |  pipes  tight max gap
BT        16 |     42     42       0
CG        16 |     20     20       0
FFT       16 |     40     40       0
MG        16 |     36     36       0
SP        16 |     42     42       0
`},
		{"SkewRobustness", func() (string, error) {
			rows, err := c.SkewRobustness("CG", 16, []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16})
			return RenderSkewTable("CG", rows), err
		}, `Skew robustness of the CG-generated network (C ∩ R under skewed traces)
    skew | witnesses  periods
    0.00 |         0        3
    0.25 |        14       59
    0.50 |        14       59
    1.00 |        14       59
    2.00 |        14       59
    4.00 |        14       59
    8.00 |        14       59
   16.00 |        16       59
`},
		{"MultiApp", func() (string, error) {
			res, err := c.MultiApp([]string{"CG", "FFT"}, 16)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}, `Reconfigurable-workload extension: one network for [CG FFT] (16 procs)
  CG   own network:  8 switches 10 links
  FFT  own network: 12 switches 20 links
  separate total:   20 switches 30 links
  shared network:   15 switches 26 links (constraints met: true)
  CG   on shared: contention-free=true exec/own=1.001
  FFT  on shared: contention-free=true exec/own=1.000
`},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("rows changed:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
