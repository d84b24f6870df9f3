//go:build !unix

package main

// Without getrusage the CPU and memory metrics are unavailable; they read
// as zero and the run reports itself incorrect (see report.go).
func cpuSeconds() float64  { return 0 }
func peakRSSMiB() float64  { return 0 }
func residentMiB() float64 { return 0 }
