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
)

// runSets is -workload all and -repeat N: the named workloads, N times
// each with seeds seed..seed+N-1, every run a child process of this
// binary — fresh heap, fresh pools, exactly what the benchmark driver
// starts. It prints, per workload and metric, min/median/max and the
// two spreads the bounds are judged by: the interquartile range over
// the median (the driver's acceptance rule, Python's
// statistics.quantiles with n=4) and (max-min)/median. Each run's full
// output is kept under .bench_build/runs/ for later comparison.
func runSets(name string, seed uint64, seconds int, trace bool, repeat int) error {
	names := workloadNames()
	if name != "all" {
		if findWorkload(name) == nil {
			return fmt.Errorf("unknown workload %q (have %v)", name, names)
		}
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := loadBounds()
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	keep := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		return err
	}
	fmt.Printf("%-15s %-22s %12s %12s %12s %9s %9s %7s\n", "workload", "metric", "min", "median", "max", "iqr/med", "rng/med", "bound")
	for _, wl := range names {
		series := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			args := []string{"-workload", wl, "-seed", strconv.FormatUint(seed+uint64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg}
			out, err := exec.Command(self, args...).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed+uint64(r), err)
			}
			file := fmt.Sprintf("%s_seed%d_trace%s.json", wl, seed+uint64(r), traceArg)
			if err := os.WriteFile(filepath.Join(keep, file), out, 0o644); err != nil {
				return err
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed+uint64(r), err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d requests failed", wl, seed+uint64(r), res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				series[m] = append(series[m], v.Value)
			}
		}
		for _, m := range sortedNames(series) {
			xs := series[m]
			sort.Float64s(xs)
			med := median(xs)
			bound := "-"
			if b, ok := bounds[m]; ok {
				bound = strconv.FormatFloat(b, 'g', -1, 64)
			}
			fmt.Printf("%-15s %-22s %12.6g %12.6g %12.6g %9.4f %9.4f %7s\n", wl, m, xs[0], med, xs[len(xs)-1],
				ratio(iqr(xs), med), ratio(xs[len(xs)-1]-xs[0], med), bound)
		}
	}
	return nil
}

// lastResult parses the driver contract: the last line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result object: %w", err)
	}
	return res, nil
}

// iqr is Q3-Q1 of sorted xs by the exclusive method of Python's
// statistics.quantiles(xs, n=4); 0 for fewer than two values.
func iqr(xs []float64) float64 {
	ld := len(xs)
	if ld < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (xs[j-1]*(n-delta) + xs[j]*delta) / n
	}
	return quartile(3) - quartile(1)
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory; without the file the bound column stays empty.
func loadBounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
