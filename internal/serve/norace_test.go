//go:build !race

package serve

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation makes wall-clock bounds meaningless.
const raceEnabled = false
