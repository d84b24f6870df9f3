package blockfile

import (
	"errors"
	"os"
	"testing"
)

// HeaderSize is the fixed header length, for tests that craft raw files.
const HeaderSize = headerSize

// NoMmap makes every Open until the test ends take the ReadAt access path —
// the one every non-unix build runs and no unix test otherwise would. It
// swaps a package variable, so callers must not run in parallel.
func NoMmap(t testing.TB) {
	old := mapFile
	mapFile = func(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }
	t.Cleanup(func() { mapFile = old })
}
