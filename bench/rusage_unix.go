//go:build unix

package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMiB is the process's resident-set high-water mark (ru_maxrss, the
// number /proc/self/status shows as VmHWM on Linux).
func peakRSSMiB() float64 {
	kib := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024 // reported in bytes there
	}
	return kib / 1024
}

// residentMiB is the process's resident set right now (VmRSS of
// /proc/self/status), or the high-water mark where there is no /proc.
func residentMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return peakRSSMiB()
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			fields := bytes.Fields(rest) // "  123456 kB"
			if len(fields) > 0 {
				if kib, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	return peakRSSMiB()
}
