//go:build !amd64

package f32

// laneDists has nothing to return on this target: the Go body computes a
// distance in full only when it wins.
func laneDists(c *Centers, scratch []float64) []float64 { return nil }
