// Command refkernel is the benchmark's reference kernel: a fixed piece of
// work the benchmark times all through a run to measure the machine it is
// running on (see ../README.md, "Reference time").
//
// It is a program of its own, not a function of the benchmark, on purpose.
// How fast a tight loop runs depends on where the linker happened to put
// it — the same kernel compiled into three builds of the benchmark took
// 450, 610 and 700 µs — and the benchmark's binary changes with every
// change to the program it links. This binary changes only when this file
// does, so the yardstick is the same for the parent commit and for the
// change measured against it.
//
// Protocol: for every byte read from standard input, run the kernel once
// and write its duration to standard output as 8 little-endian bytes of
// nanoseconds. End of input ends the program.
package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"time"
)

// The kernel has two parts, about a third and two thirds of its time on a
// quiet box. The first is arithmetic that never leaves its own cache; the
// second is a walk of dependent loads through a table no cache holds.
// What the neighbours on a shared box take away is mostly the second kind
// of speed — shared cache and memory — and the served program needs both:
// over six minutes of this box's ordinary weather, the latency of one
// in-process select followed the walk with slope 0.9–1.3, the arithmetic
// with slope 0.5, and a one-to-two mix of them closest of all (what was
// left of a 6 % wobble after dividing by it was 3.4 %; by the arithmetic
// alone, 5.4 %).
const (
	points  = 1024
	dim     = 32
	centres = 10

	chainLen = 4 << 20 // 16 MiB of uint32: larger than any cache it can keep
	steps    = 4000
)

var (
	data    [points * dim]float32
	centre  [centres * dim]float32
	nearest [points]uint8

	chain = make([]uint32, chainLen)
	at    uint32 // where the walk stands; it goes on from run to run
)

func init() {
	x := uint32(1)
	next := func() uint32 { // xorshift: fixed data, no seed
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range data {
		data[i] = float32(next()%2048)/1024 - 1
	}
	for i := range centre {
		centre[i] = float32(next()%2048)/1024 - 1
	}
	// One cycle through every slot in a shuffled order (Sattolo), so each
	// step lands on a line the last one could not have predicted.
	order := make([]uint32, chainLen)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := chainLen - 1; i > 0; i-- {
		j := next() % uint32(i)
		order[i], order[j] = order[j], order[i]
	}
	for i, slot := range order {
		chain[slot] = order[(i+1)%chainLen]
	}
}

// kernel assigns every point to its nearest centre — the inner loop of the
// clustering the served program spends most of a select in — and then
// walks the chain.
func kernel() {
	for p := 0; p < points; p++ {
		pt := data[p*dim : (p+1)*dim]
		best, bestD := 0, float32(0)
		for c := 0; c < centres; c++ {
			ct := centre[c*dim : (c+1)*dim]
			var d float32
			for j, v := range pt {
				diff := v - ct[j]
				d += diff * diff
			}
			if c == 0 || d < bestD {
				best, bestD = c, d
			}
		}
		nearest[p] = uint8(best)
	}
	for i := 0; i < steps; i++ {
		at = chain[at]
	}
}

func main() {
	in := bufio.NewReader(os.Stdin)
	var buf [8]byte
	for {
		if _, err := in.ReadByte(); err != nil {
			return
		}
		start := time.Now()
		kernel()
		binary.LittleEndian.PutUint64(buf[:], uint64(time.Since(start)))
		if _, err := os.Stdout.Write(buf[:]); err != nil {
			return
		}
	}
}
