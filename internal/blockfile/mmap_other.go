//go:build !unix

package blockfile

import (
	"errors"
	"os"
)

// mmapFile is unavailable on this platform; Open falls back to ReadAt.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func munmap(data []byte) {}
