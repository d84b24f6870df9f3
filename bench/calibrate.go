package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// calibrationFile is where -calibrate records the spreads the bounds in
// BENCHMARK.json were taken from.
const calibrationFile = "bench/CALIBRATION.json"

// spreadRow is one (workload, metric) pair over the calibration runs.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	// Spread is the distance between the first and third quartile as a
	// share of the median — the statistic the acceptance check uses.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// The same pair as the clock read it, without the reference-time
	// correction: what the metric would be, and how it would spread, if
	// the machine's speed were not measured along with the program.
	RawMedian float64 `json:"raw_median"`
	RawSpread float64 `json:"raw_spread"`
}

// runCalibration runs every workload n times, each with its own seed as the
// acceptance check does, and writes min/median/max and spread per pair.
func runCalibration(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("-calibrate needs at least 2 runs")
	}
	var rows []spreadRow
	for _, w := range workloads {
		values, raws := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, raw, err := child(w, c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				raws[name] = append(raws[name], raw[name])
			}
		}
		for _, d := range endToEnd {
			xs := sortedCopy(values[d.Name])
			rows = append(rows, spreadRow{
				Workload: w.name, Metric: d.Name, Unit: d.Unit, Runs: len(xs),
				Min: xs[0], Median: median(xs), Max: xs[len(xs)-1],
				Spread: relSpread(xs), Bound: d.Bound,
				RawMedian: median(raws[d.Name]), RawSpread: relSpread(raws[d.Name]),
			})
		}
	}
	fmt.Printf("%-22s %-26s %12s %12s %12s %8s %7s %8s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "raw")
	worst := append([]spreadRow(nil), rows...)
	sort.SliceStable(worst, func(i, j int) bool { return worst[i].Spread/worst[i].Bound > worst[j].Spread/worst[j].Bound })
	for _, r := range worst {
		fmt.Printf("%-22s %-26s %12.5g %12.5g %12.5g %7.2f%% %6.0f%% %7.2f%%\n", r.Workload, r.Metric, r.Min, r.Median, r.Max, r.Spread*100, r.Bound*100, r.RawSpread*100)
	}
	buf, err := json.MarshalIndent(struct {
		Seed    int64       `json:"first_seed"`
		Seconds float64     `json:"seconds"`
		Rows    []spreadRow `json:"pairs"`
	}{cfg.seed, cfg.seconds, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(calibrationFile, append(buf, '\n'), 0o644)
}
