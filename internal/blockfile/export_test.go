package blockfile

import "testing"

// HeaderSize is the fixed header length, for tests that craft raw files.
const HeaderSize = headerSize

// NoMmap makes every Open until the test ends take the ReadAt access path
// (DisableMapping). Callers must not run in parallel.
func NoMmap(t testing.TB) { t.Cleanup(DisableMapping()) }
