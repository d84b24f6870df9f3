//go:build amd64

package f32

// laneDists returns every centre's squared distance as the Nearest call that
// just used scratch left them: where the SSE2 body writes its lanes.
func laneDists(c *Centers, scratch []float64) []float64 { return scratch[:c.k] }
