//go:build unix

package blockfile

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only. Callers fall back to ReadAt on
// any error (empty files cannot be mapped on most unixes, and some
// filesystems refuse mmap entirely).
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) { _ = syscall.Munmap(data) }

// syncDir makes the renames inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
