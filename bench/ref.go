package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Reference time. This benchmark runs on shared virtual machines whose
// speed moves by up to a half within seconds and stays down for minutes —
// a fixed loop measured 58 to 112 iterations a second over 80 seconds of an
// otherwise idle box, wall time and process CPU time alike, with no steal
// time to subtract. A bound of 10–25 % cannot be held against that, so the
// benchmark measures the machine along with the program: all through a run
// it times a fixed piece of work that is not the program's (the refkernel
// helper process) and reports every duration in *reference time*, the
// measured time multiplied by how much faster than nominal the reference
// work ran just then (and once more, at report time, by the square root of
// the run's overall factor: see line.sustained). On a quiet machine the
// factor is about 1 and reference milliseconds are milliseconds. Every
// metric is also printed as the clock read it, and CALIBRATION.json records
// the spread of both, so what the correction buys — and where it does not —
// is on file.
const (
	// refNominal fixes the unit: one kernel run on a quiet box of the kind
	// the bounds were calibrated on. Metrics are only ever compared with
	// other runs of this benchmark, so any constant would do; this one
	// makes reference time read like clock time there.
	refNominal = 1200 * time.Microsecond
	// refWindow is how many of the latest kernel timings a factor is the
	// median of.
	refWindow = 5
)

// pace times the reference kernel through a run.
type pace struct {
	// kernel runs the reference kernel once and returns its duration in
	// nanoseconds; a test substitutes a constant.
	kernel func() (float64, error)
	stop   func() error
	ns     []float64 // every kernel timing of the run, in order
	err    error     // first failure to time the kernel; fails the run
}

// startPace starts the refkernel helper: the binary beside this one (where
// run.sh builds it) or, failing that, one built now into .bench_build/ from
// the working directory, which must then be the repository root.
func startPace() (*pace, error) {
	path := ""
	if exe, err := os.Executable(); err == nil {
		path = filepath.Join(filepath.Dir(exe), "refkernel")
	}
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join(".bench_build", "refkernel")
		if out, err := exec.Command("go", "build", "-o", path, "./bench/refkernel").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building the reference kernel: %v: %s", err, out)
		}
	}
	cmd := exec.Command(path)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var buf [8]byte
	return &pace{
		kernel: func() (float64, error) {
			if _, err := in.Write(buf[:1]); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(out, buf[:]); err != nil {
				return 0, err
			}
			return float64(binary.LittleEndian.Uint64(buf[:])), nil
		},
		stop: func() error {
			in.Close() // end of input ends the helper
			return cmd.Wait()
		},
	}, nil
}

// tick times the kernel once and returns the current speed factor: nominal
// kernel time over the median of the latest refWindow timings. Below 1 the
// machine is running slow and measured durations are scaled down by it.
func (p *pace) tick() float64 {
	ns, err := p.kernel()
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("timing the reference kernel: %w", err)
		}
		return 1
	}
	p.ns = append(p.ns, ns)
	return p.factorSince(max(0, len(p.ns)-refWindow))
}

// ticks times the kernel n times.
func (p *pace) ticks(n int) {
	for i := 0; i < n; i++ {
		p.tick()
	}
}

// metronome is how often the kernel is timed while something long runs.
const metronome = 200 * time.Millisecond

// during runs fn and times the kernel every metronome beat until it
// returns: an upload takes seconds, the machine's speed moves within
// seconds, and timings at its two ends alone miss what happened between
// them. The kernel is a millisecond of another process's work five times a
// second, so it costs fn nothing that shows.
func (p *pace) during(fn func() error) error {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		beat := time.NewTicker(metronome)
		defer beat.Stop()
		for {
			select {
			case <-stop:
				return
			case <-beat.C:
				p.tick()
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return err
}

// mark is a position in the run's kernel timings.
func (p *pace) mark() int { return len(p.ns) }

// factorSince is the speed factor over the timings taken since mark.
func (p *pace) factorSince(mark int) float64 {
	if mark >= len(p.ns) {
		return 1
	}
	return float64(refNominal) / median(p.ns[mark:])
}
