package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"repro/bench/workload"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance procedure uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// checkRow is one (workload, metric) line of the -check report.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	// Median and Spread (interquartile range over median) of each set.
	Median [2]float64 `json:"median"`
	Spread [2]float64 `json:"spread"`
	// Worse is how much worse the second set's median is than the first's,
	// as a share of the first; negative when it is better.
	Worse float64 `json:"worse"`
	OK    bool    `json:"ok"`
	// Values holds every run's reading, per set, in seed order.
	Values [2][]float64 `json:"values"`
}

// checkRuns is the number of seeds per set, as in the acceptance procedure.
const checkRuns = 10

// runCheck runs every workload (or only the named one) over two sets of
// checkRuns seeds, back to back, each run a fresh process of this binary
// over the window BENCHMARK.json fixes, and fails unless every end-to-end
// metric's spread stays within its bound (setup_s excepted) and the second
// set's median is not worse than the first's by more than the bound. The
// rows are written to <out>/check.json.
func runCheck(only, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rows []checkRow
	failed := 0
	for _, spec := range workload.Specs() {
		if only != "" && spec.Name != only {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < checkRuns; i++ {
				seed := 1 + set*checkRuns + i
				cmd := exec.Command(self, "-workload", spec.Name, "-seed", strconv.Itoa(seed), "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %v\n%s", spec.Name, seed, err, out)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: bad result line: %v", spec.Name, seed, err)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d seed %d done\n", spec.Name, set+1, seed)
			}
		}
		for _, d := range endToEnd {
			row := checkRow{Workload: spec.Name, Metric: d.Name, Bound: d.Bound}
			for set := range sets {
				xs := sets[set][d.Name]
				q1, q3 := quartiles(xs)
				row.Values[set] = xs
				row.Median[set] = median(xs)
				row.Spread[set] = (q3 - q1) / row.Median[set]
			}
			row.Worse = (row.Median[1] - row.Median[0]) / row.Median[0]
			if d.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.OK = row.Worse <= d.Bound &&
				(d.Name == "setup_s" || (row.Spread[0] <= d.Bound && row.Spread[1] <= d.Bound))
			if !row.OK {
				failed++
			}
			rows = append(rows, row)
			fmt.Printf("%-14s %-14s bound %.2f  median %10.4g %10.4g  spread %6.3f %6.3f  worse %+6.3f  ok=%t\n",
				row.Workload, row.Metric, row.Bound, row.Median[0], row.Median[1], row.Spread[0], row.Spread[1], row.Worse, row.OK)
		}
	}
	raw, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "check.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", failed)
	}
	return nil
}
