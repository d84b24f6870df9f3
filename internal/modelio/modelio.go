// Package modelio persists pre-processed SubTab models. The whole point of
// the paper's two-phase design is that the expensive pre-processing phase
// (bin → corpus → Word2Vec) is paid once while every display is interactive;
// serializing the model extends "once" across process restarts and lets a
// serving layer (package serve) keep warm models on disk.
//
// The format is a versioned little-endian binary codec. Version 8:
//
//	"SUBTABMD" magic · uint16 version · options · table schema husk
//	(name, row count, per column name and kind) · binned representation
//	(per-column binnings, then the codes section) · embedding matrices ·
//	column-affinity matrix · bin counts · append lineage · cells section ·
//	CRC-32C
//
// The codes section and the cells section each hold one of three variants
// behind a flag byte: an embedded image — a u64 length, then byte for byte
// the code store (package codestore) or column store (package colstore)
// file the paged stores write for the same model, so bin codes sit at one
// byte per cell when a column has at most 256 bins and each column's cells
// in its narrowest exact encoding; a reference to one such file beside the
// model (base name, block size, identity checksum); or a shard map of
// row-range shard files. A resident model embeds both images and loads
// back fully resident: Load materializes the images into the in-memory
// table and inline codes. Package blockfile is the only framing and cell
// encoding on disk either way.
//
// Everything Select/SelectQuery needs is round-tripped — including the item
// vectors and the precomputed column-affinity matrix — so a loaded model
// skips binning, training and the affinity computation entirely and produces
// byte-identical selections (same seeds) to the model that was saved.
// Cells come back exactly (negative zero included, dictionaries in code
// order); a missing cell comes back missing, without a NaN's payload bits.
//
// The trailing CRC-32C covers every preceding byte, embedded images
// included; Load rejects truncated or bit-flipped files with an error
// wrapping ErrCorrupt, unknown magics with ErrBadMagic, and newer/older
// format versions with ErrVersion. Files of every version from 1 on load.
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
	"slices"

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
// at load time. Files from versions 1-6 still load unchanged. Version 8
// carries a resident model's codes and cells as embedded code-store and
// column-store images (the bytes those stores' files hold, at one byte per
// code for up to 256 bins and each column's narrowest exact cell encoding,
// where version 7 spent 2 bytes per code, 8 per number and 4 per
// dictionary code); its table section is always the schema husk, the
// codes and cells sections each hold an image, an external reference or a
// shard map, and the retired options slot is gone. Files from versions 1-7
// still load unchanged.
const Version uint16 = 8

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
	writeSchema(e, m.T)
	if err := writeBinned(e, m.B); err != nil {
		return err
	}
	writeEmbedding(e, m.Emb)
	writeAffinity(e, m.AffinityData(), m.T.NumCols())
	writeBinCounts(e, m.BinCountsData())
	e.u64(uint64(m.AppendedSinceRebin()))
	if err := writeCells(e, m); err != nil {
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
func LoadWith(r io.Reader, lopt LoadOptions) (_ *core.Model, err error) {
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
	cols, codes, codeSec := readBinnedParts(d, t, v)
	emb := readEmbedding(d)
	aff := readAffinity(d, t)
	var counts [][]int64
	appendedSinceRebin := 0
	if v >= 3 {
		counts = readBinCounts(d, t, cols)
		appendedSinceRebin = int(d.u64())
	}
	var cellSec section
	if v >= 7 {
		cellSec = readCells(d, t, v)
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
	// Every store opened from here on is closed again when a later step
	// fails, so a rejected model leaves no mapping behind.
	var opened []io.Closer
	defer func() {
		if err != nil {
			for _, c := range opened {
				c.Close()
			}
		}
	}()
	// Embedded cells (v8) turn the schema husk back into the resident
	// table before anything is restored over it.
	if cellSec.image != nil {
		if t, err = residentTable(t, cellSec.image); err != nil {
			return nil, err
		}
	}
	// Assemble the binned representation only after the model file itself
	// verified: inline or embedded codes restore directly; an external
	// reference opens the code store next to the model and checks its
	// identity checksum; a shard map opens every shard the same way (or,
	// with AllowMissingShards, the shards that are here).
	var b *binning.Binned
	switch {
	case codeSec.shards != nil:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references a %d-shard code store; load with LoadFile or LoadWith{CodeStoreDir}", len(codeSec.shards))
		}
		src, err := shard.Open(lopt.CodeStoreDir, &shard.Map{Shards: codeSec.shards}, t.NumCols(), lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded code store: %w", err)
		}
		opened = append(opened, src)
		if b, err = binning.RestoreWithStore(t, cols, src); err != nil {
			return nil, fmt.Errorf("%w: attaching sharded code store: %v", ErrCorrupt, err)
		}
	case codeSec.ref != nil:
		cs, err := openRef(lopt, codeSec.ref, "code", codestore.Open)
		if err != nil {
			return nil, err
		}
		opened = append(opened, cs)
		if b, err = binning.RestoreWithStore(t, cols, cs); err != nil {
			return nil, fmt.Errorf("%w: attaching external code store: %v", ErrCorrupt, err)
		}
	default:
		if codeSec.image != nil {
			if codes, err = imageCodes(codeSec.image, t.NumRows(), len(cols)); err != nil {
				return nil, err
			}
		}
		if b, err = binning.Restore(t, cols, codes); err != nil {
			return nil, fmt.Errorf("%w: rebuilding binned representation: %v", ErrCorrupt, err)
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
	case cellSec.shards != nil:
		if lopt.CodeStoreDir == "" {
			return nil, fmt.Errorf("modelio: model references a %d-shard column store; load with LoadFile or LoadWith{CodeStoreDir}", len(cellSec.shards))
		}
		cells, err := shard.OpenCells(lopt.CodeStoreDir, cellSec.shards, t.ColumnNames(), lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded column store: %w", err)
		}
		opened = append(opened, cells)
		if err := m.AttachColumnStore(cells); err != nil {
			return nil, fmt.Errorf("%w: attaching sharded column store: %v", ErrCorrupt, err)
		}
	case cellSec.ref != nil:
		cs, err := openRef(lopt, cellSec.ref, "column", colstore.Open)
		if err != nil {
			return nil, err
		}
		opened = append(opened, cs)
		if err := m.AttachColumnStore(cs); err != nil {
			return nil, fmt.Errorf("%w: attaching external column store: %v", ErrCorrupt, err)
		}
	}
	return m, nil
}

// openRef opens the external store ref names in lopt.CodeStoreDir and
// checks its identity checksum against the one the model recorded; what
// ("code" or "column") names the store in errors.
func openRef[S interface {
	Checksum() uint32
	Close() error
}](lopt LoadOptions, ref *storeRef, what string, open func(string) (S, error)) (S, error) {
	var none S
	if lopt.CodeStoreDir == "" {
		return none, fmt.Errorf("modelio: model references external %s store %q; load with LoadFile or LoadWith{CodeStoreDir}", what, ref.file)
	}
	s, err := open(filepath.Join(lopt.CodeStoreDir, ref.file))
	if err != nil {
		return none, fmt.Errorf("modelio: opening external %s store %q: %w", what, ref.file, err)
	}
	if s.Checksum() != ref.checksum {
		s.Close()
		return none, fmt.Errorf("%w: external %s store %q has checksum %08x, model expects %08x",
			ErrCorrupt, what, ref.file, s.Checksum(), ref.checksum)
	}
	return s, nil
}

// residentTable rebuilds the resident table a v8 file's schema husk
// describes from its embedded column-store image, which must hold exactly
// the husk's columns (names and kinds, in order) and rows.
func residentTable(husk *table.Table, image []byte) (*table.Table, error) {
	s, err := colstore.OpenBytes(image)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded cells: %v", ErrCorrupt, err)
	}
	if s.NumRows() != husk.NumRows() || s.NumCols() != husk.NumCols() {
		return nil, fmt.Errorf("%w: embedded cells are %dx%d, table is %dx%d", ErrCorrupt, s.NumRows(), s.NumCols(), husk.NumRows(), husk.NumCols())
	}
	for c, col := range husk.Columns() {
		if s.ColumnName(c) != col.Name || s.ColumnKind(c) != col.Kind {
			return nil, fmt.Errorf("%w: embedded cells column %d is %q, table has %q", ErrCorrupt, c, s.ColumnName(c), col.Name)
		}
	}
	t, err := s.MaterializeTable(husk.Name)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded cells: %v", ErrCorrupt, err)
	}
	return t, nil
}

// imageCodes decodes a v8 file's embedded code-store image, which must
// hold exactly cols columns of rows codes.
func imageCodes(image []byte, rows, cols int) ([][]uint16, error) {
	s, err := codestore.OpenBytes(image)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded codes: %v", ErrCorrupt, err)
	}
	if s.NumRows() != rows || s.NumCols() != cols {
		return nil, fmt.Errorf("%w: embedded codes are %dx%d, table is %dx%d", ErrCorrupt, s.NumRows(), s.NumCols(), rows, cols)
	}
	return s.Columns(), nil
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
	if v >= 5 && v <= 7 {
		d.i64()
	}
	return o
}

// writeSchema writes the v8 table section: the schema husk of name, row
// count and per column name and kind. The cells travel in the cells
// section.
func writeSchema(e *encoder, t *table.Table) {
	e.str(t.Name)
	e.u32(uint32(t.NumRows()))
	e.u32(uint32(t.NumCols()))
	for _, c := range t.Columns() {
		e.str(c.Name)
		e.u8(uint8(c.Kind))
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
	// No version's Save writes a model without columns (it has no codes to
	// store), so a zero count is damage.
	if nCols == 0 || nCols > maxColumns {
		d.fail("column count %d out of range", nCols)
		return nil
	}
	// v8 always writes the schema husk; v7 writes it for a paged table,
	// behind a cells-presence flag. The raw columns live in the cells
	// section or the external column store it references.
	if v >= 8 {
		return readHusk(d, name, nRows, nCols)
	}
	if v == 7 {
		switch flag := d.u8(); {
		case d.err != nil:
			return nil
		case flag == 0:
			return readHusk(d, name, nRows, nCols)
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

// readHusk reads a schema husk's columns (name and kind) and returns the
// table they describe, marked paged at nRows rows.
func readHusk(d *decoder, name string, nRows, nCols int) *table.Table {
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
}

// The codes section (v5+) and the cells section (v7+) each hold one of
// three variants behind a flag byte: an embedded store image (v8), a
// reference to one external store file, or a row-range shard map. The two
// sections number their flags differently: in v5-v7 the codes flag 1
// meant inline u16 codes and the cells flag 0 meant cells inline in the
// table section, and v8 put each section's image under that flag.
type sectionFlags struct{ image, ref, shards uint8 }

var (
	codeFlags = sectionFlags{image: 1, ref: 0, shards: 2}
	cellFlags = sectionFlags{image: 0, ref: 1, shards: 2}
)

// section is one decoded codes or cells section: at most one field is set
// (none for v1-v7 inline codes and cells).
type section struct {
	image  []byte       // an embedded store image (v8)
	ref    *storeRef    // an external store file next to the model
	shards []shard.Desc // row-range shard files next to the model
}

// storeRef is a deserialized external store reference.
type storeRef struct {
	file      string
	blockRows int
	checksum  uint32
}

// maxImageBytes bounds an embedded image's length field: the stores'
// geometry caps keep any real image far below it.
const maxImageBytes = 1 << 50

// writeImage writes an embedded store image behind its flag: u64 length,
// then the image's bytes.
func writeImage(e *encoder, flag uint8, image []byte) {
	e.u8(flag)
	e.u64(uint64(len(image)))
	e.bytes(image)
}

// writeStoreSection writes the section of a store-backed source: the shard
// map when src is sharded, else the reference to its single file. what
// ("code" or "cell") names the source in errors.
func writeStoreSection(e *encoder, flags sectionFlags, src any, what string) error {
	if sc, ok := src.(interface{ ShardDescs() []shard.Desc }); ok {
		descs := sc.ShardDescs()
		for i, d := range descs {
			if d.File == "" {
				return fmt.Errorf("modelio: %s shard %d has no file identity; only stores opened from a shard map can be saved", what, i)
			}
		}
		e.u8(flags.shards)
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
	if !ok || ref.Path() == "" {
		return fmt.Errorf("modelio: the model's %s source has no file identity; attach a store opened from a file before saving", what)
	}
	e.u8(flags.ref)
	e.str(filepath.Base(ref.Path()))
	e.u32(uint32(ref.BlockRows()))
	e.u32(ref.Checksum())
	return nil
}

// readSection reads the variant flag names (already read) of a section
// over rows rows. Flags outside the three variants fail.
func readSection(d *decoder, flag uint8, flags sectionFlags, what string, rows int) section {
	switch flag {
	case flags.image:
		n := d.u64()
		if d.err != nil {
			return section{}
		}
		if n > maxImageBytes {
			d.fail("embedded %s image of %d bytes", what, n)
			return section{}
		}
		return section{image: d.raw(int(n))}
	case flags.ref:
		ref := &storeRef{file: d.str(), blockRows: int(d.u32()), checksum: d.u32()}
		if d.err != nil {
			return section{}
		}
		if ref.file == "" || ref.file != filepath.Base(ref.file) {
			d.fail("invalid external %s store reference %q", what, ref.file)
			return section{}
		}
		return section{ref: ref}
	case flags.shards:
		n := int(d.u32())
		if d.err != nil {
			return section{}
		}
		if n <= 0 || n > 1<<20 {
			d.fail("%s store with %d shards", what, n)
			return section{}
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
				return section{}
			}
			if sd.File == "" || sd.File != filepath.Base(sd.File) || sd.Rows < 0 || sd.BlockRows <= 0 {
				d.fail("invalid %s shard entry %d (%q, %d rows, %d rows/block)", what, i, sd.File, sd.Rows, sd.BlockRows)
				return section{}
			}
			total += sd.Rows
			descs = append(descs, sd)
		}
		if total != rows {
			d.fail("%s shards hold %d rows, table has %d", what, total, rows)
			return section{}
		}
		return section{shards: descs}
	}
	d.fail("unknown %s-section flag %d", what, flag)
	return section{}
}

// writeBinned serializes the binned representation: per-column metadata
// first, then the codes section — the inline codes as an embedded code
// store image, an external code-store reference, or a shard map.
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
	if !b.HasInlineCodes() {
		return writeStoreSection(e, codeFlags, b.Source(), "code")
	}
	image, err := codestore.Image(b.NumBins(), b.Codes, 0)
	if err != nil {
		return fmt.Errorf("modelio: encoding bin codes: %w", err)
	}
	writeImage(e, codeFlags.image, image)
	return nil
}

// writeCells serializes the cells section: the resident table's cells as
// an embedded column store image, or the external column store (one file
// or a shard set) its cell source was opened from.
func writeCells(e *encoder, m *core.Model) error {
	if src := m.CellSource(); src != nil {
		return writeStoreSection(e, cellFlags, src, "cell")
	}
	if !m.T.CellsResident() {
		return errors.New("modelio: table cells are paged but the model has no cell source")
	}
	image, err := colstore.TableImage(m.T, 0)
	if err != nil {
		return fmt.Errorf("modelio: encoding table cells: %w", err)
	}
	writeImage(e, cellFlags.image, image)
	return nil
}

// readCells reads the cells section (v7+). A v7 file's flag 0 means the
// cells travelled inline in the table section.
func readCells(d *decoder, t *table.Table, v uint16) section {
	if d.err != nil || t == nil {
		return section{}
	}
	flag := d.u8()
	if d.err != nil {
		return section{}
	}
	if v == 7 && flag == 0 {
		if !t.CellsResident() {
			d.fail("table cells are paged but no column store is referenced")
		}
		return section{}
	}
	return readSection(d, flag, cellFlags, "cell", t.NumRows())
}

// readBinnedParts reads the binned section: the per-column binnings plus
// the codes — inline (v1-v7), or the section holding them. Versions <= 4
// interleave each column's codes with its metadata; version 5 moves the
// codes behind the presence flag after all columns; version 6 adds the
// shard-map variant and version 8 the embedded image.
func readBinnedParts(d *decoder, t *table.Table, v uint16) ([]binning.ColumnBins, [][]uint16, section) {
	if d.err != nil {
		return nil, nil, section{}
	}
	nCols := int(d.u32())
	if d.err != nil {
		return nil, nil, section{}
	}
	if nCols != t.NumCols() {
		d.fail("binned representation has %d columns, table has %d", nCols, t.NumCols())
		return nil, nil, section{}
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
			return nil, nil, section{}
		}
		if nLabels > binning.MaxBinsLimit+1 {
			// Bin codes are uint16, so no column can have more bins.
			d.fail("column %d has %d bin labels", i, nLabels)
			return nil, nil, section{}
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
			return nil, nil, section{}
		}
	}
	if v <= 4 {
		return cols, codes, section{}
	}
	flag := d.u8()
	switch {
	case d.err != nil:
		return nil, nil, section{}
	case flag == 1 && v <= 7:
		for i := 0; i < nCols; i++ {
			codes[i] = d.u16s(nRows)
		}
		return cols, codes, section{}
	case flag == codeFlags.shards && v < 6:
		d.fail("unknown code-section flag %d", flag)
		return nil, nil, section{}
	}
	sec := readSection(d, flag, codeFlags, "code", nRows)
	if d.err != nil {
		return nil, nil, section{}
	}
	return cols, nil, sec
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
		out = slices.Grow(out, c)[:len(out)+c]
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
