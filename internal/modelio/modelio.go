// Package modelio persists pre-processed SubTab models. The whole point of
// the paper's two-phase design is that the expensive pre-processing phase
// (bin → corpus → Word2Vec) is paid once while every display is interactive;
// serializing the model extends "once" across process restarts and lets a
// serving layer (package serve) keep warm models on disk.
//
// The format is a versioned little-endian binary codec:
//
//	"SUBTABMD" magic · uint16 version · options · table · binned
//	representation · embedding matrices · column-affinity matrix ·
//	bin counts + append lineage (v3+) · CRC-32C
//
// Everything Select/SelectQuery needs is round-tripped — including the item
// vectors and the precomputed column-affinity matrix — so a loaded model
// skips binning, training and the affinity computation entirely and produces
// byte-identical selections (same seeds) to the model that was saved.
//
// The trailing CRC-32C covers every preceding byte; Load rejects truncated
// or bit-flipped files with an error wrapping ErrCorrupt, unknown magics
// with ErrBadMagic, and newer/older format versions with ErrVersion.
package modelio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/shard"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// Version is the current model-file format version. It must be bumped
// whenever the layout of any serialized structure (including the Options
// structs) changes. Version 2 moved the in-memory endpoints of the codec to
// the flat-matrix core (embedding and affinity matrices serialize straight
// from their contiguous backing arrays, with no slice-of-slices staging on
// either side); the byte layout is unchanged from version 1 apart from the
// version field itself. Version 3 appends the cumulative per-column bin
// counts and the appended-since-rebin lineage counter after the affinity
// matrix, so the streaming append path (core.Model.Append) stays
// incremental across a save/load cycle instead of re-scanning the table
// for its drift baseline; files from versions 1 and 2 still load, with the
// counts rebuilt lazily on first use. Version 4 appends the large-table
// scale options (threshold, sample budget, batch size, max iterations) to
// the Options section, so a model saved with the scaled selection mode
// configured keeps it after a load; files from versions 1-3 load with the
// mode disabled (the historical behaviour). Version 5 restructures the
// binned section for out-of-core models: the per-column bin codes — by far
// the largest section of a big table's model — move behind a presence flag
// and may be replaced by a reference to an external code store file
// (package codestore), identified by base name and checksum and resolved
// against the model file's directory at load time; the scale options gain
// the slab spill budget, a slot since retired (written as 0, skipped on
// read). Files from versions 1-4 still load unchanged.
// Version 6 adds a third codes-section variant for sharded models (flag 2):
// the shard map — per shard, the codestore file's base name, row count,
// block size and identity checksum — resolved against the model file's
// directory at load time. With LoadOptions.AllowMissingShards, shard files
// that do not exist load as a partial source (a coordinator whose shards
// live on peers). Files from versions 1-5 still load unchanged. Version 7
// extends the out-of-core story to the raw columns: the table section gains
// a cells-presence flag (a paged table saves as a schema husk — names,
// kinds and row count only), and a column-store section after the lineage
// counter references the external paged column store (package colstore) —
// a single file, a sharded set cut like the code shards, or none — by base
// name and identity checksum, resolved against the model file's directory
// at load time. Files from versions 1-6 still load unchanged.
const Version uint16 = 7

var magic = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'M', 'D'}

// Sentinel errors returned (wrapped) by Load.
var (
	ErrBadMagic = errors.New("modelio: not a subtab model file")
	ErrVersion  = errors.New("modelio: unsupported model file version")
	ErrCorrupt  = errors.New("modelio: corrupt model file")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Save writes m to w in the versioned binary format.
func Save(w io.Writer, m *core.Model) error {
	if m == nil || m.T == nil || m.B == nil || m.Emb == nil {
		return errors.New("modelio: cannot save incomplete model")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.New(crcTable)
	e := &encoder{w: io.MultiWriter(bw, h)}

	e.bytes(magic[:])
	e.u16(Version)
	writeOptions(e, m.Opt)
	writeTable(e, m.T)
	if err := writeBinned(e, m.B); err != nil {
		return err
	}
	writeEmbedding(e, m.Emb)
	writeAffinity(e, m.AffinityData(), m.T.NumCols())
	writeBinCounts(e, m.BinCountsData())
	e.u64(uint64(m.AppendedSinceRebin()))
	if err := writeColumnStore(e, m); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	// The checksum trails the data it covers, so it is written past the
	// hashing writer.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes m to path, creating or truncating the file.
func SaveFile(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOptions configures Load for models that reference external state.
type LoadOptions struct {
	// CodeStoreDir is the directory external code-store references (v5
	// models saved out-of-core) and shard maps (v6 sharded models) are
	// resolved against. Empty means external references fail with a
	// descriptive error; LoadFile fills it with the model file's own
	// directory.
	CodeStoreDir string
	// AllowMissingShards loads a sharded model whose shard files are partly
	// absent as a partial source (every present shard still validates
	// against the map). The selection path then requires an installed
	// scatter/gather sampler — this is the coordinator mode of a
	// multi-server sharded table.
	AllowMissingShards bool
}

// Load reads a model previously written by Save. Models that reference an
// external code store need the store's directory — use LoadFile (which
// infers it from the model path) or LoadWith.
func Load(r io.Reader) (*core.Model, error) {
	return LoadWith(r, LoadOptions{})
}

// LoadWith reads a model previously written by Save, resolving external
// code-store references per opt.
func LoadWith(r io.Reader, lopt LoadOptions) (*core.Model, error) {
	h := crc32.New(crcTable)
	d := &decoder{r: bufio.NewReaderSize(r, 1<<16), h: h}

	var gotMagic [8]byte
	d.bytes(gotMagic[:])
	if d.err != nil || gotMagic != magic {
		return nil, ErrBadMagic
	}
	// All prior versions are accepted: v2 only changed the in-memory
	// endpoints of the codec, v3 appended the bin-count section, and v4
	// appended the scale options — so older disk caches keep serving
	// (byte-identical selections included) across upgrades; v1/v2 models
	// rebuild their counts lazily, and pre-v4 models load with the
	// large-table mode disabled.
	v := d.u16()
	if d.err != nil || v < 1 || v > Version {
		if d.err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return nil, fmt.Errorf("%w: file version %d, this build reads versions 1-%d", ErrVersion, v, Version)
	}
	opt := readOptions(d, v)
	t := readTable(d, v)
	cols, codes, ref, smap := readBinnedParts(d, t, v)
	emb := readEmbedding(d)
	aff := readAffinity(d, t)
	var counts [][]int64
	appendedSinceRebin := 0
	if v >= 3 {
		counts = readBinCounts(d, t, cols)
		appendedSinceRebin = int(d.u64())
	}
	var colRef *storeRef
	var colShards []shard.Desc
	if v >= 7 {
		colRef, colShards = readColumnStore(d, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	// Verify the trailing checksum before trusting any of the decoded data
	// structurally beyond what decoding itself validated.
	want := h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(d.r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// Assemble the binned representation only after the model file itself
	// verified: inline codes restore directly; an external reference opens
	// the code store next to the model and checks its identity checksum; a
	// shard map opens every shard the same way (or, with AllowMissingShards,
	// the shards that are here).
	var b *binning.Binned
	switch {
	case smap != nil:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references a %d-shard code store; load with LoadFile or LoadWith{CodeStoreDir}", len(smap.Shards))
		}
		src, err := shard.Open(lopt.CodeStoreDir, smap, t.NumCols(), lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded code store: %w", err)
		}
		b, err = binning.RestoreWithStore(t, cols, src)
		if err != nil {
			src.Close()
			return nil, fmt.Errorf("%w: attaching sharded code store: %v", ErrCorrupt, err)
		}
	case ref == nil:
		var err error
		b, err = binning.Restore(t, cols, codes)
		if err != nil {
			return nil, fmt.Errorf("%w: rebuilding binned representation: %v", ErrCorrupt, err)
		}
	default:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references external code store %q; load with LoadFile or LoadWith{CodeStoreDir}", ref.file)
		}
		cs, err := codestore.Open(filepath.Join(lopt.CodeStoreDir, ref.file))
		if err != nil {
			return nil, fmt.Errorf("modelio: opening external code store %q: %w", ref.file, err)
		}
		if cs.Checksum() != ref.checksum {
			cs.Close()
			return nil, fmt.Errorf("%w: external code store %q has checksum %08x, model expects %08x",
				ErrCorrupt, ref.file, cs.Checksum(), ref.checksum)
		}
		b, err = binning.RestoreWithStore(t, cols, cs)
		if err != nil {
			cs.Close()
			return nil, fmt.Errorf("%w: attaching external code store: %v", ErrCorrupt, err)
		}
	}
	m, err := core.Restore(t, b, emb, opt, aff)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if counts != nil {
		if err := m.SeedBinCounts(counts); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if err := m.SetAppendedSinceRebin(appendedSinceRebin); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// External raw columns attach last: the model is structurally whole, so
	// geometry validation runs against the verified schema.
	switch {
	case colShards != nil:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references a %d-shard column store; load with LoadFile or LoadWith{CodeStoreDir}", len(colShards))
		}
		names := make([]string, t.NumCols())
		for c := range names {
			names[c] = t.ColumnAt(c).Name
		}
		cells, err := shard.OpenCells(lopt.CodeStoreDir, colShards, names, lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded column store: %w", err)
		}
		if err := m.AttachColumnStore(cells); err != nil {
			cells.Close()
			return nil, fmt.Errorf("%w: attaching sharded column store: %v", ErrCorrupt, err)
		}
	case colRef != nil:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references external column store %q; load with LoadFile or LoadWith{CodeStoreDir}", colRef.file)
		}
		cs, err := colstore.Open(filepath.Join(lopt.CodeStoreDir, colRef.file))
		if err != nil {
			return nil, fmt.Errorf("modelio: opening external column store %q: %w", colRef.file, err)
		}
		if cs.Checksum() != colRef.checksum {
			cs.Close()
			return nil, fmt.Errorf("%w: external column store %q has checksum %08x, model expects %08x",
				ErrCorrupt, colRef.file, cs.Checksum(), colRef.checksum)
		}
		if err := m.AttachColumnStore(cs); err != nil {
			cs.Close()
			return nil, fmt.Errorf("%w: attaching external column store: %v", ErrCorrupt, err)
		}
	}
	return m, nil
}

// LoadFile reads a model from path. External code-store references are
// resolved against the model file's directory.
func LoadFile(path string) (*core.Model, error) {
	return LoadFileWith(path, LoadOptions{})
}

// LoadFileWith reads a model from path with explicit load options; an
// empty CodeStoreDir is filled with the model file's own directory.
func LoadFileWith(path string, lopt LoadOptions) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if lopt.CodeStoreDir == "" {
		lopt.CodeStoreDir = filepath.Dir(path)
	}
	return LoadWith(f, lopt)
}

// ---------------------------------------------------------------------------
// Sections

func writeOptions(e *encoder, o core.Options) {
	e.i64(int64(o.Bins.MaxBins))
	e.i64(int64(o.Bins.Strategy))
	e.i64(int64(o.Bins.SampleSize))
	e.i64(int64(o.Bins.GridSize))
	e.i64(o.Bins.Seed)
	e.i64(int64(o.Corpus.MaxSentences))
	e.bool(o.Corpus.TupleSentences)
	e.bool(o.Corpus.ColumnSentences)
	e.i64(o.Corpus.Seed)
	e.i64(int64(o.Embedding.Dim))
	e.i64(int64(o.Embedding.Window))
	e.i64(int64(o.Embedding.Negatives))
	e.i64(int64(o.Embedding.Epochs))
	e.f64(o.Embedding.LearningRate)
	e.i64(o.Embedding.Seed)
	e.i64(int64(o.Embedding.Workers))
	e.i64(int64(o.Columns))
	e.i64(o.ClusterSeed)
	e.i64(int64(o.Scale.Threshold))
	e.i64(int64(o.Scale.SampleBudget))
	e.i64(int64(o.Scale.BatchSize))
	e.i64(int64(o.Scale.MaxIter))
	e.i64(0) // v5-v7 slot of the retired slab spill budget
}

func readOptions(d *decoder, v uint16) core.Options {
	var o core.Options
	o.Bins.MaxBins = int(d.i64())
	o.Bins.Strategy = binning.Strategy(d.i64())
	o.Bins.SampleSize = int(d.i64())
	o.Bins.GridSize = int(d.i64())
	o.Bins.Seed = d.i64()
	o.Corpus.MaxSentences = int(d.i64())
	o.Corpus.TupleSentences = d.bool()
	o.Corpus.ColumnSentences = d.bool()
	o.Corpus.Seed = d.i64()
	o.Embedding.Dim = int(d.i64())
	o.Embedding.Window = int(d.i64())
	o.Embedding.Negatives = int(d.i64())
	o.Embedding.Epochs = int(d.i64())
	o.Embedding.LearningRate = d.f64()
	o.Embedding.Seed = d.i64()
	o.Embedding.Workers = int(d.i64())
	o.Columns = core.ColumnStrategy(d.i64())
	o.ClusterSeed = d.i64()
	// The scale section exists from version 4 on; older files predate the
	// large-table mode and load with it disabled.
	if v >= 4 {
		o.Scale.Threshold = int(d.i64())
		o.Scale.SampleBudget = int(d.i64())
		o.Scale.BatchSize = int(d.i64())
		o.Scale.MaxIter = int(d.i64())
	}
	// Versions 5-7 carry the retired slab spill budget's slot; the value is
	// ignored (the memory governor alone bounds a select's slab).
	if v >= 5 {
		d.i64()
	}
	return o
}

func writeTable(e *encoder, t *table.Table) {
	e.str(t.Name)
	e.u32(uint32(t.NumRows()))
	e.u32(uint32(t.NumCols()))
	// v7: the cells-presence flag. A paged table (raw columns living in an
	// external column store) saves as a schema husk — per column just name
	// and kind; the dictionaries and payloads are the store's.
	if t.CellsResident() {
		e.u8(1)
	} else {
		e.u8(0)
		for _, c := range t.Columns() {
			e.str(c.Name)
			e.u8(uint8(c.Kind))
		}
		return
	}
	for _, c := range t.Columns() {
		e.str(c.Name)
		e.u8(uint8(c.Kind))
		if c.Kind == table.Numeric {
			e.f64s(c.Nums)
			continue
		}
		dictSize := 0
		if c.Dict != nil {
			dictSize = c.Dict.Size()
		}
		e.u32(uint32(dictSize))
		for code := 0; code < dictSize; code++ {
			e.str(c.Dict.String(int32(code)))
		}
		e.i32s(c.Cats)
	}
}

// maxColumns bounds structure counts that size allocations directly; larger
// values in a file can only come from corruption.
const maxColumns = 1 << 20

func readTable(d *decoder, v uint16) *table.Table {
	name := d.str()
	nRows := int(d.u32())
	nCols := int(d.u32())
	if d.err != nil {
		return nil
	}
	if nCols > maxColumns {
		d.fail("column count %d exceeds limit", nCols)
		return nil
	}
	if v >= 7 {
		switch flag := d.u8(); {
		case d.err != nil:
			return nil
		case flag == 0:
			// Schema husk: the raw columns live in the external column store
			// the trailing column-store section references.
			cols := make([]*table.Column, 0, min(nCols, 4096))
			for i := 0; i < nCols; i++ {
				colName := d.str()
				kind := table.Kind(d.u8())
				if d.err != nil {
					return nil
				}
				if kind != table.Numeric && kind != table.Categorical {
					d.fail("unknown column kind %d", kind)
					return nil
				}
				cols = append(cols, &table.Column{Name: colName, Kind: kind})
			}
			t, err := table.FromColumns(name, cols)
			if err != nil {
				d.fail("rebuilding table: %v", err)
				return nil
			}
			t.MarkPaged(nRows)
			return t
		case flag != 1:
			d.fail("unknown table cells flag %d", flag)
			return nil
		}
	}
	cols := make([]*table.Column, 0, min(nCols, 4096))
	for i := 0; i < nCols; i++ {
		colName := d.str()
		kind := table.Kind(d.u8())
		switch kind {
		case table.Numeric:
			if n := int(d.u32()); d.err == nil && n != nRows {
				d.fail("numeric column %q has %d values, table has %d rows", colName, n, nRows)
				return nil
			}
			nums := d.f64sN(nRows)
			cols = append(cols, table.NewNumeric(colName, nums))
		case table.Categorical:
			dictSize := int(d.u32())
			dict := table.NewDict()
			for code := 0; code < dictSize; code++ {
				s := d.str()
				if d.err != nil {
					return nil
				}
				if dict.Code(s) != int32(code) {
					d.fail("duplicate dictionary string %q", s)
					return nil
				}
			}
			cats := d.i32s(nRows)
			for _, code := range cats {
				if int(code) >= dictSize {
					d.fail("categorical code %d out of dictionary range %d", code, dictSize)
					return nil
				}
			}
			cols = append(cols, &table.Column{Name: colName, Kind: table.Categorical, Cats: cats, Dict: dict})
		default:
			d.fail("unknown column kind %d", kind)
			return nil
		}
		if d.err != nil {
			return nil
		}
	}
	t, err := table.FromColumns(name, cols)
	if err != nil {
		d.fail("rebuilding table: %v", err)
		return nil
	}
	return t
}

// writeBinned serializes the binned representation in the v5 layout:
// per-column metadata first, then one codes section — inline (flag 1, the
// per-column bin codes) or an external code-store reference (flag 0: base
// file name, block size and the store's identity checksum). Store-backed
// models whose source has no file identity cannot be saved as-is.
func writeBinned(e *encoder, b *binning.Binned) error {
	e.u32(uint32(len(b.Cols)))
	for i := range b.Cols {
		cb := &b.Cols[i]
		e.str(cb.Col)
		e.u8(uint8(cb.Kind))
		e.u32(uint32(len(cb.Labels)))
		for _, l := range cb.Labels {
			e.str(l)
		}
		e.f64s(cb.Cuts)
		ints := make([]int32, len(cb.CatToBin))
		for j, v := range cb.CatToBin {
			ints[j] = int32(v)
		}
		e.u32(uint32(len(ints)))
		e.i32s(ints)
		e.i64(int64(cb.MissingBin))
	}
	if b.HasInlineCodes() {
		e.u8(1)
		for i := range b.Cols {
			e.u16s(b.Codes[i])
		}
		return nil
	}
	if src, ok := b.Source().(*shard.Source); ok {
		descs := src.ShardDescs()
		for i, d := range descs {
			if d.File == "" {
				return fmt.Errorf("modelio: sharded model's shard %d has no file identity; only stores opened from a shard map can be saved", i)
			}
		}
		e.u8(2)
		e.u32(uint32(len(descs)))
		for _, d := range descs {
			e.str(d.File)
			e.u64(uint64(d.Rows))
			e.u32(uint32(d.BlockRows))
			e.u32(d.Checksum)
		}
		return nil
	}
	ref, ok := b.Source().(interface {
		Path() string
		Checksum() uint32
		BlockRows() int
	})
	if !ok {
		return errors.New("modelio: model is store-backed but its code source has no file identity; attach a codestore.Store or materialize the codes before saving")
	}
	e.u8(0)
	e.str(filepath.Base(ref.Path()))
	e.u32(uint32(ref.BlockRows()))
	e.u32(ref.Checksum())
	return nil
}

// storeRef is a deserialized external code-store reference.
type storeRef struct {
	file      string
	blockRows int
	checksum  uint32
}

// writeColumnStore serializes the v7 column-store section: one flag — no
// external columns (0, cells travel inline in the table section), a single
// paged column store (1: base file name, block size, identity checksum), or
// a sharded set (2: per-shard descriptors, cut like the code shards).
func writeColumnStore(e *encoder, m *core.Model) error {
	src := m.CellSource()
	if src == nil {
		if !m.T.CellsResident() {
			return errors.New("modelio: table cells are paged but the model has no cell source")
		}
		e.u8(0)
		return nil
	}
	if sc, ok := src.(interface{ ShardDescs() []shard.Desc }); ok {
		descs := sc.ShardDescs()
		for i, d := range descs {
			if d.File == "" {
				return fmt.Errorf("modelio: sharded column store's shard %d has no file identity", i)
			}
		}
		e.u8(2)
		e.u32(uint32(len(descs)))
		for _, d := range descs {
			e.str(d.File)
			e.u64(uint64(d.Rows))
			e.u32(uint32(d.BlockRows))
			e.u32(d.Checksum)
		}
		return nil
	}
	ref, ok := src.(interface {
		Path() string
		Checksum() uint32
		BlockRows() int
	})
	if !ok {
		return errors.New("modelio: model's cell source has no file identity; attach a colstore.Store before saving")
	}
	e.u8(1)
	e.str(filepath.Base(ref.Path()))
	e.u32(uint32(ref.BlockRows()))
	e.u32(ref.Checksum())
	return nil
}

// readColumnStore reads the v7 column-store section, returning exactly one
// of a single-file reference or a sharded descriptor list (both nil when
// the model has no external columns).
func readColumnStore(d *decoder, t *table.Table) (*storeRef, []shard.Desc) {
	if d.err != nil || t == nil {
		return nil, nil
	}
	switch flag := d.u8(); {
	case d.err != nil:
		return nil, nil
	case flag == 0:
		if !t.CellsResident() {
			d.fail("table cells are paged but no column store is referenced")
		}
		return nil, nil
	case flag == 1:
		ref := &storeRef{file: d.str(), blockRows: int(d.u32()), checksum: d.u32()}
		if d.err != nil {
			return nil, nil
		}
		if ref.file == "" || ref.file != filepath.Base(ref.file) {
			d.fail("invalid external column store reference %q", ref.file)
			return nil, nil
		}
		return ref, nil
	case flag == 2:
		n := int(d.u32())
		if d.err != nil {
			return nil, nil
		}
		if n <= 0 || n > 1<<20 {
			d.fail("column store with %d shards", n)
			return nil, nil
		}
		descs := make([]shard.Desc, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			sd := shard.Desc{
				File:      d.str(),
				Rows:      int(d.u64()),
				BlockRows: int(d.u32()),
				Checksum:  d.u32(),
			}
			if d.err != nil {
				return nil, nil
			}
			if sd.File == "" || sd.File != filepath.Base(sd.File) || sd.Rows < 0 || sd.BlockRows <= 0 {
				d.fail("invalid column shard entry %d (%q, %d rows, %d rows/block)", i, sd.File, sd.Rows, sd.BlockRows)
				return nil, nil
			}
			total += sd.Rows
			descs = append(descs, sd)
		}
		if total != t.NumRows() {
			d.fail("column shards hold %d rows, table has %d", total, t.NumRows())
			return nil, nil
		}
		return nil, descs
	default:
		d.fail("unknown column-store flag %d", flag)
		return nil, nil
	}
}

// readBinnedParts reads the binned section: the per-column binnings plus
// exactly one of the inline codes, an external store reference, or (v6) a
// shard map. Versions <= 4 interleave each column's codes with its
// metadata; version 5 moves the codes behind the presence flag after all
// columns; version 6 adds the shard-map variant.
func readBinnedParts(d *decoder, t *table.Table, v uint16) ([]binning.ColumnBins, [][]uint16, *storeRef, *shard.Map) {
	if d.err != nil {
		return nil, nil, nil, nil
	}
	nCols := int(d.u32())
	if d.err != nil {
		return nil, nil, nil, nil
	}
	if nCols != t.NumCols() {
		d.fail("binned representation has %d columns, table has %d", nCols, t.NumCols())
		return nil, nil, nil, nil
	}
	nRows := t.NumRows()
	cols := make([]binning.ColumnBins, nCols)
	codes := make([][]uint16, nCols)
	for i := 0; i < nCols; i++ {
		cb := &cols[i]
		cb.Col = d.str()
		cb.Kind = table.Kind(d.u8())
		nLabels := int(d.u32())
		if d.err != nil {
			return nil, nil, nil, nil
		}
		if nLabels > binning.MaxBinsLimit+1 {
			// Bin codes are uint16, so no column can have more bins.
			d.fail("column %d has %d bin labels", i, nLabels)
			return nil, nil, nil, nil
		}
		cb.Labels = make([]string, nLabels)
		for j := range cb.Labels {
			cb.Labels[j] = d.str()
		}
		nCuts := int(d.u32())
		cb.Cuts = d.f64sN(nCuts)
		nCat := int(d.u32())
		catInts := d.i32s(nCat)
		cb.CatToBin = make([]int, len(catInts))
		for j, v := range catInts {
			cb.CatToBin[j] = int(v)
		}
		cb.MissingBin = int(d.i64())
		if v <= 4 {
			codes[i] = d.u16s(nRows)
		}
		if d.err != nil {
			return nil, nil, nil, nil
		}
	}
	if v <= 4 {
		return cols, codes, nil, nil
	}
	switch flag := d.u8(); {
	case d.err != nil:
		return nil, nil, nil, nil
	case flag == 1:
		for i := 0; i < nCols; i++ {
			codes[i] = d.u16s(nRows)
		}
		return cols, codes, nil, nil
	case flag == 0:
		ref := &storeRef{file: d.str(), blockRows: int(d.u32()), checksum: d.u32()}
		if d.err != nil {
			return nil, nil, nil, nil
		}
		if ref.file == "" || ref.file != filepath.Base(ref.file) {
			d.fail("invalid external code store reference %q", ref.file)
			return nil, nil, nil, nil
		}
		return cols, nil, ref, nil
	case flag == 2 && v >= 6:
		n := int(d.u32())
		if d.err != nil {
			return nil, nil, nil, nil
		}
		if n < 0 || n > 1<<20 {
			d.fail("shard map with %d shards", n)
			return nil, nil, nil, nil
		}
		sm := &shard.Map{Shards: make([]shard.Desc, 0, n)}
		for i := 0; i < n; i++ {
			sd := shard.Desc{
				File:      d.str(),
				Rows:      int(d.u64()),
				BlockRows: int(d.u32()),
				Checksum:  d.u32(),
			}
			if d.err != nil {
				return nil, nil, nil, nil
			}
			if sd.File == "" || sd.File != filepath.Base(sd.File) || sd.Rows < 0 || sd.BlockRows <= 0 {
				d.fail("invalid shard map entry %d (%q, %d rows, %d rows/block)", i, sd.File, sd.Rows, sd.BlockRows)
				return nil, nil, nil, nil
			}
			sm.Shards = append(sm.Shards, sd)
		}
		if sm.TotalRows() != nRows {
			d.fail("shard map holds %d rows, table has %d", sm.TotalRows(), nRows)
			return nil, nil, nil, nil
		}
		return cols, nil, nil, sm
	default:
		d.fail("unknown codes-section flag %d", flag)
		return nil, nil, nil, nil
	}
}

// f64s with an explicit leading count (cuts have no implied length).
func (e *encoder) f64s(xs []float64) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.f64(x)
	}
}

func writeEmbedding(e *encoder, m *word2vec.Model) {
	e.u32(uint32(m.Dim()))
	e.u32(uint32(m.VocabSize()))
	e.i32s(m.Tokens())
	e.f32s(m.VectorData())
	e.f32s(m.ContextData())
}

func readEmbedding(d *decoder) *word2vec.Model {
	dim := int(d.u32())
	vocab := int(d.u32())
	if d.err != nil {
		return nil
	}
	if dim <= 0 || dim > word2vec.MaxDim {
		d.fail("embedding dimension %d out of range", dim)
		return nil
	}
	tokens := d.i32s(vocab)
	vecs := d.f32s(vocab * dim)
	ctx := d.f32s(vocab * dim)
	if d.err != nil {
		return nil
	}
	m, err := word2vec.Restore(dim, tokens, vecs, ctx)
	if err != nil {
		d.fail("rebuilding embedding: %v", err)
		return nil
	}
	return m
}

// writeBinCounts serializes the cumulative per-column per-bin row counts
// (format v3): the streaming append path's drift baseline.
func writeBinCounts(e *encoder, counts [][]int64) {
	e.u32(uint32(len(counts)))
	for _, cc := range counts {
		e.u32(uint32(len(cc)))
		for _, v := range cc {
			e.i64(v)
		}
	}
}

func readBinCounts(d *decoder, t *table.Table, cols []binning.ColumnBins) [][]int64 {
	if d.err != nil || cols == nil {
		return nil
	}
	nc := int(d.u32())
	if d.err != nil {
		return nil
	}
	if nc != len(cols) {
		d.fail("bin counts for %d columns, binning has %d", nc, len(cols))
		return nil
	}
	out := make([][]int64, nc)
	nRows := int64(t.NumRows())
	for c := range out {
		n := int(d.u32())
		if d.err != nil {
			return nil
		}
		if n != cols[c].NumBins() {
			d.fail("column %d has %d bin counts, %d bins", c, n, cols[c].NumBins())
			return nil
		}
		cc := make([]int64, n)
		total := int64(0)
		for i := range cc {
			cc[i] = d.i64()
			if cc[i] < 0 {
				d.fail("column %d has negative bin count", c)
				return nil
			}
			total += cc[i]
		}
		if d.err != nil {
			return nil
		}
		if total != nRows {
			d.fail("column %d bin counts sum to %d, table has %d rows", c, total, nRows)
			return nil
		}
		out[c] = cc
	}
	return out
}

func writeAffinity(e *encoder, aff []float64, nCols int) {
	e.u32(uint32(nCols))
	for _, a := range aff {
		e.f64(a)
	}
}

func readAffinity(d *decoder, t *table.Table) []float64 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n != t.NumCols() {
		d.fail("affinity matrix for %d columns, table has %d", n, t.NumCols())
		return nil
	}
	return d.f64sN(n * n)
}

// ---------------------------------------------------------------------------
// Primitive codec. The encoder and decoder carry a sticky error so sections
// can be written/read straight-line; the decoder reads large slices in
// bounded chunks so that a corrupted length fails with ErrCorrupt at EOF
// instead of attempting one huge allocation.

type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *encoder) u8(v uint8) { e.bytes([]byte{v}) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u16(v uint16) { binary.LittleEndian.PutUint16(e.buf[:2], v); e.bytes(e.buf[:2]) }
func (e *encoder) u32(v uint32) { binary.LittleEndian.PutUint32(e.buf[:4], v); e.bytes(e.buf[:4]) }
func (e *encoder) u64(v uint64) { binary.LittleEndian.PutUint64(e.buf[:8], v); e.bytes(e.buf[:8]) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) i32s(xs []int32) {
	if e.err != nil {
		return
	}
	buf := make([]byte, 0, 1<<16)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		if len(buf) >= 1<<16 {
			e.bytes(buf)
			buf = buf[:0]
		}
	}
	e.bytes(buf)
}

func (e *encoder) u16s(xs []uint16) {
	buf := make([]byte, 0, 1<<16)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint16(buf, x)
		if len(buf) >= 1<<16 {
			e.bytes(buf)
			buf = buf[:0]
		}
	}
	e.bytes(buf)
}

func (e *encoder) f32s(xs []float32) {
	buf := make([]byte, 0, 1<<16)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		if len(buf) >= 1<<16 {
			e.bytes(buf)
			buf = buf[:0]
		}
	}
	e.bytes(buf)
}

type decoder struct {
	r   io.Reader
	h   hash.Hash32
	err error
	buf [8]byte
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) bytes(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("%w: unexpected end of file", ErrCorrupt)
		return
	}
	d.h.Write(p)
}

func (d *decoder) u8() uint8 {
	d.bytes(d.buf[:1])
	return d.buf[0]
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u16() uint16 {
	d.bytes(d.buf[:2])
	return binary.LittleEndian.Uint16(d.buf[:2])
}

func (d *decoder) u32() uint32 {
	d.bytes(d.buf[:4])
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *decoder) u64() uint64 {
	d.bytes(d.buf[:8])
	return binary.LittleEndian.Uint64(d.buf[:8])
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// maxChunk bounds single allocations while decoding; corrupted lengths then
// hit EOF after at most one chunk instead of allocating gigabytes up front.
const maxChunk = 1 << 20

func (d *decoder) str() string {
	// Chunked like every variable-length read, so Save/Load stay symmetric
	// for strings of any length while corrupt lengths still fail at EOF.
	return string(d.raw(int(d.u32())))
}

// raw reads n bytes in bounded chunks.
func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 {
		d.fail("negative length %d", n)
		return nil
	}
	out := make([]byte, 0, min(n, maxChunk))
	for len(out) < n {
		c := min(n-len(out), maxChunk)
		out = append(out, make([]byte, c)...)
		d.bytes(out[len(out)-c:])
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *decoder) f64sN(n int) []float64 {
	p := d.raw(n * 8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return out
}

func (d *decoder) f32s(n int) []float32 {
	p := d.raw(n * 4)
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return out
}

func (d *decoder) i32s(n int) []int32 {
	p := d.raw(n * 4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return out
}

func (d *decoder) u16s(n int) []uint16 {
	p := d.raw(n * 2)
	if d.err != nil {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(p[i*2:])
	}
	return out
}
