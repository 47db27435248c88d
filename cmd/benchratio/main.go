// Command benchratio is the same-run speedup gate. It echoes `go test -bench`
// text from stdin to stdout, then prints ns(NUM)/ns(DEN) for every -ratio
// pair, and exits 1 when a named benchmark is missing from the input or a
// ratio is below -min-ratio. Both sides run in the same invocation on the
// same machine, so no recorded baseline is needed.
//
//	go test -run '^$' -bench '^(BenchmarkA|BenchmarkB)$' ./pkg | benchratio -ratio BenchmarkA:BenchmarkB -min-ratio 10
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	var pairs []string
	flag.Func("ratio", "NUM:DEN benchmark names; gate ns(NUM)/ns(DEN) (repeatable)", func(v string) error {
		pairs = append(pairs, v)
		return nil
	})
	minRatio := flag.Float64("min-ratio", 0, "fail when any -ratio is below this floor")
	flag.Parse()
	if err := gate(os.Stdin, os.Stdout, pairs, *minRatio); err != nil {
		fmt.Fprintln(os.Stderr, "benchratio:", err)
		os.Exit(1)
	}
}

// gate echoes in to out, prints every pair's ratio, and returns every failure
// joined. Names match with the GOMAXPROCS suffix stripped on both sides; other
// lines, and every metric after ns/op, are ignored.
func gate(in io.Reader, out io.Writer, pairs []string, minRatio float64) error {
	ns := map[string]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fmt.Fprintln(out, sc.Text())
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			ns[stripProcs(f[0])] = v
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var errs []error
	for _, p := range pairs {
		num, den, ok := strings.Cut(p, ":")
		n, nok := ns[stripProcs(num)]
		d, dok := ns[stripProcs(den)]
		if !ok || !nok || !dok {
			errs = append(errs, fmt.Errorf("-ratio %q: want NUM:DEN, both benchmarks in the input", p))
			continue
		}
		fmt.Fprintf(out, "ratio %s / %s = %.2fx (floor %.2fx)\n", num, den, n/d, minRatio)
		if n/d < minRatio {
			errs = append(errs, fmt.Errorf("-ratio %s: %.2fx is below the floor %.2fx", p, n/d, minRatio))
		}
	}
	return errors.Join(errs...)
}

// stripProcs drops the -N GOMAXPROCS suffix go test appends to a name.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
