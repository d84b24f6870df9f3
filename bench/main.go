// Command bench is the repository's benchmark: it boots the real serving
// stack in-process, drives POST /tables and /v1/sessions/* over loopback
// HTTP with generated inputs, checks every response, and reports the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// declared in BENCHMARK.json. See README.md in this directory.
//
//	go run ./bench -seed 1                       # the four workloads, end-to-end metrics
//	go run ./bench -seed 1 -trace 1              # … then the traced runs as well
//	go run ./bench -workload tenants_evict_40    # one workload; last line is the JSON result
//	go run ./bench -calibrate 10                 # measure run-to-run spread → bench/CALIBRATION.json
//	go run ./bench -short                        # tenth-size smoke, no numbers
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// tmpRoot holds store directories and CSV files while a run lasts and
// outRoot what a run leaves behind (span files); both are relative to the
// working directory, so the benchmark never writes outside its checkout.
const (
	tmpRoot = ".bench_tmp"
	outRoot = ".bench_out"
)

// defaultSeconds must equal run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() {
	procStart := time.Now()
	var (
		name      = flag.String("workload", "", "run this one workload in this process and end with the JSON result line; empty runs all of them, each in a fresh process")
		seed      = flag.Int64("seed", 1, "input seed: same seed, same inputs; the served program never sees it")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed phase of one run")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		short     = flag.Bool("short", false, "tenth-size compile-and-crash smoke; reports no numbers")
		calibrate = flag.Int("calibrate", 0, "run every workload this many times (seeds seed, seed+1, …) and write the observed spreads to bench/CALIBRATION.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *calibrate < 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-short] [-calibrate n]")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short}
	var err error
	switch {
	case *name != "":
		err = runOne(*name, cfg, procStart)
	case *calibrate > 0:
		err = runCalibration(cfg, *calibrate)
	default:
		err = runSuite(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is a workload process: everything it measures is this process's.
func runOne(name string, cfg config, procStart time.Time) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.short {
		w = w.shrunk()
		cfg.seconds = min(cfg.seconds, 1)
	}
	if cfg.trace {
		cfg.spans = filepath.Join(outRoot, w.name+".spans.json")
	}
	p, err := startPace()
	if err != nil {
		return err
	}
	out, err := runWorkload(w, cfg, procStart, p)
	if stopErr := p.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if cfg.short {
		if out.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %s", w.name, out.failed, out.attempted, strings.Join(out.errs, "; "))
		}
		fmt.Printf("short %s: ok (%d ops)\n", w.name, out.attempted)
		return nil
	}
	if res := out.print(os.Stdout, cfg); !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a fresh process (so peak RSS and heap state do
// not leak across workloads), passes its report through, and returns the
// parsed result line and the raw-clock values printed above it.
func child(w workload, cfg config) (result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0"}
	if cfg.trace {
		args[len(args)-1] = "1"
	}
	if cfg.short {
		args = append(args, "-short")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if cfg.short || runErr != nil || len(lines) < 2 {
		fmt.Println(strings.Join(lines, "\n"))
		return result{}, nil, runErr
	}
	fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
	var res result
	var raw map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], rawPrefix)), &raw); err != nil {
		return result{}, nil, fmt.Errorf("%s: raw-clock line: %w", w.name, err)
	}
	return res, raw, nil
}

// runSuite runs the four workloads one after another; with -trace 1 each
// is followed by its traced run.
func runSuite(cfg config) error {
	var failed []string
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && !cfg.trace {
				continue
			}
			c := cfg
			c.trace = traced
			if _, _, err := child(w, c); err != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}
