package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/core"
	"subtab/internal/modelio"
)

// failCommits makes every model-file commit fail while it writes the model
// until restore runs or the test ends. seen collects the temp files those
// commits wrote to.
func failCommits(t testing.TB) (seen *[]string, restore func()) {
	old := saveModel
	seen = new([]string)
	saveModel = func(w io.Writer, _ *core.Model, _ modelio.Residency) error {
		*seen = append(*seen, w.(*os.File).Name())
		return errors.New("injected commit failure")
	}
	restore = func() { saveModel = old }
	t.Cleanup(restore)
	return seen, restore
}

// unsyncedCommits makes every model-file commit report a failed directory
// sync after its rename until the test ends.
func unsyncedCommits(t testing.TB) {
	old := writeAtomic
	writeAtomic = func(path string, write func(tmp string) error) error {
		if err := old(path, write); err != nil {
			return err
		}
		return fmt.Errorf("%w: injected", blockfile.ErrUnsynced)
	}
	t.Cleanup(func() { writeAtomic = old })
}

// put installs a ready-made model under name in the layout it is in,
// through the write path an add takes after its Preprocess.
func (s *Store) put(name string, m *core.Model) error {
	nl := s.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	_, err := s.putLocked(name, m, layoutOf(m))
	return err
}

// putResident installs m under name as it is, through the store's insert,
// without writing a model file: a resident model beside the mapped ones the
// store serves, for a reference behind the HTTP and session routes or a
// model whose sources no file can hold.
func (s *Store) putResident(name string, m *core.Model) {
	s.insert(name, m)
}
