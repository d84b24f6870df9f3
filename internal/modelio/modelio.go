// Package modelio persists pre-processed SubTab models. The whole point of
// the paper's two-phase design is that the expensive pre-processing phase
// (bin → corpus → Word2Vec) is paid once while every display is interactive;
// serializing the model extends "once" across process restarts and lets a
// serving layer (package serve) keep warm models on disk.
//
// The format is a versioned little-endian binary codec, and Load reads the
// one version Save writes, 9. It keeps an unsharded table in one file:
//
//	"SUBTABMD" magic · uint16 version · options · table schema husk
//	(name, row count, per column name and kind) · per-column binnings ·
//	embedding matrices · column-affinity matrix · bin counts · append
//	lineage · residency byte · codes section · cells section · zero
//	padding to an 8-byte boundary · codes image · zero padding · cells
//	image · CRC-32C
//
// The codes and cells sections each hold, behind a flag byte, either the
// length of a store image that follows the header or a shard map of
// row-range shard files beside the model (base name, row count, block size
// and identity checksum per shard) — both the same kind, since a table's
// codes and cells page together. An image is byte for byte the file the
// paged stores write — package codestore's for the bin codes (1, 2, 4, 8
// or 16 bits per code, the fewest that hold the column's bins) and package
// colstore's for the displayed cells (each column in its narrowest exact
// encoding, down to 1 bit) — so package blockfile is the only framing and
// cell encoding on disk. Each image carries its own store version, which
// must be the one the stores read; a model file whose images are older is
// refused as a version. Save streams the images: their lengths are known
// before their first page, and a paged model's are copied verbatim.
//
// A load copies neither image. It checks the trailing CRC-32C, which
// covers the header sections and the zero alignment padding, then each
// image's block-file framing (header, meta, per-page CRC index, footer
// checksum, end magic) and every page against that index, so it rejects
// damage anywhere in the file. LoadFile reads all of this through the
// file's handle (pread), so checking leaves no page resident, then maps the
// file once (package blockfile's mmap-or-ReadAt Region) and serves the
// codes and cells from the images in place; Load serves them from the bytes
// it read. The residency byte Save records (how the saved model held its
// codes and cells) is validated and changes nothing: every loaded model is
// paged. Load rejects damage with an error wrapping ErrCorrupt, unknown
// magics with ErrBadMagic, and every file version but Version, or store
// images of a store version but the current one, with ErrVersion.
//
// Everything Select/SelectQuery needs is round-tripped — including the item
// vectors and the precomputed column-affinity matrix — so a loaded model
// skips binning, training and the affinity computation entirely and produces
// byte-identical selections (same seeds) to the model that was saved.
// Cells come back exactly (negative zero included, dictionaries in code
// order); a missing cell comes back missing, without a NaN's payload bits.
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
	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/shard"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// Version is the model-file format version Save writes and the only one
// Load reads; every other version fails with ErrVersion. It must be bumped
// whenever the layout of any serialized structure (including the Options
// structs) changes, and a bump retires the files of the version before.
// Version 9 keeps every unsharded model as one file: the header sections,
// a residency byte, then both store images at 8-byte-aligned offsets
// outside the header's CRC.
const Version uint16 = 9

var magic = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'M', 'D'}

// Sentinel errors returned (wrapped) by Load.
var (
	ErrBadMagic = errors.New("modelio: not a subtab model file")
	ErrVersion  = errors.New("modelio: unsupported model file version")
	ErrCorrupt  = errors.New("modelio: corrupt model file")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Residency is how a saved model held an unsharded table's codes and
// cells. Save records it; a sharded model's stay in its shard files either
// way, and is saved Resident. A load serves every unsharded model from its
// file's images whatever the byte says.
type Residency uint8

const (
	// Resident models held their codes and cells in memory.
	Resident Residency = 0
	// Paged models served them from stores.
	Paged Residency = 1
)

// ResidencyOf is the residency m is in: Paged when it is unsharded and
// served from stores, else Resident.
func ResidencyOf(m *core.Model) Residency {
	if m.ShardSource() == nil && m.OutOfCore() {
		return Paged
	}
	return Resident
}

// imageAlign is the alignment of each store image inside a model file.
const imageAlign = 8

// Save writes m to w in the current format, its codes and cells to be
// loaded in residency r.
func Save(w io.Writer, m *core.Model, r Residency) error {
	if m == nil || m.T == nil || m.B == nil || m.Emb == nil {
		return errors.New("modelio: cannot save incomplete model")
	}
	if r != Resident && r != Paged {
		return fmt.Errorf("modelio: unknown residency %d", r)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	codes, err := codesSection(bw, m)
	if err != nil {
		return err
	}
	cells, err := cellsSection(bw, m)
	if err != nil {
		return err
	}
	h := crc32.New(crcTable)
	e := &encoder{w: io.MultiWriter(bw, h)}
	e.bytes(magic[:])
	e.u16(Version)
	writeOptions(e, m.Opt)
	writeSchema(e, m.T)
	writeBinnings(e, m.B)
	writeEmbedding(e, m.Emb)
	writeAffinity(e, m.AffinityData(), m.T.NumCols())
	writeBinCounts(e, m.BinCountsData())
	e.u64(uint64(m.AppendedSinceRebin()))
	e.u8(uint8(r))
	codes.writeHeader(e, codeFlags)
	cells.writeHeader(e, cellFlags)
	for _, sec := range []outSection{codes, cells} {
		if sec.write == nil {
			continue
		}
		// The padding is hashed; the image streams past the hashing writer,
		// its pages covered by its own checksums.
		e.bytes(make([]byte, padding(e.n)))
		if e.err == nil {
			e.err = sec.write()
		}
		e.n += sec.size
	}
	if e.err != nil {
		return e.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// padding returns the zero bytes that take offset n to the next image
// boundary.
func padding(n int64) int64 { return (imageAlign - n%imageAlign) % imageAlign }

// SaveFile writes m to path in its current residency (ResidencyOf). It
// writes a temp file beside path, syncs it and renames it over path, so a
// crash never leaves a partial model at path and a model still mapped from
// the old file keeps reading it.
func SaveFile(path string, m *core.Model) error {
	return blockfile.WriteAtomic(path, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = Save(f, m, ResidencyOf(m))
		if err == nil {
			err = f.Sync()
		}
		return errors.Join(err, f.Close())
	})
}

// LoadOptions configures LoadFileWith for sharded models.
type LoadOptions struct {
	// AllowMissingShards loads a sharded model whose shard files are partly
	// absent as a partial source (every present shard still validates
	// against the map). The selection path then requires an installed
	// scatter/gather sampler — this is the coordinator mode of a
	// multi-server sharded table.
	AllowMissingShards bool
}

// Load reads a model previously written by Save. It reads r whole and
// serves the codes and cells from those bytes. A sharded model needs the
// directory of its shard files: use LoadFile.
func Load(r io.Reader) (*core.Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return load(blockfile.BytesRegion(data), "", LoadOptions{})
}

// LoadFile reads a model from path and serves its codes and cells from the
// file's mapping. A shard map resolves against the model file's directory.
func LoadFile(path string) (*core.Model, error) {
	return LoadFileWith(path, LoadOptions{})
}

// LoadFileWith reads a model from path with explicit load options.
func LoadFileWith(path string, lopt LoadOptions) (*core.Model, error) {
	reg, err := blockfile.OpenUnmapped(path)
	if err != nil {
		return nil, err
	}
	// The stores hold their own references to the mapping; this Close
	// closes the handle the load read through.
	defer reg.Close()
	return load(reg, filepath.Dir(path), lopt)
}

// header is a model file's decoded header sections, before the model is
// assembled from them.
type header struct {
	residency Residency
	opt       core.Options
	t         *table.Table
	cols      []binning.ColumnBins
	codeSec   section
	cellSec   section
	emb       *word2vec.Model
	aff       []float64
	counts    [][]int64
	appended  int
	crcAt     int64  // offset of the trailing CRC-32C
	crc       uint32 // the CRC-32C of what it covers
}

// readHeader decodes the header sections of the model file reg holds,
// places its images and checks its padding. It computes the trailing
// checksum but does not compare it.
func readHeader(reg *blockfile.Region) (*header, error) {
	h := crc32.New(crcTable)
	d := &decoder{r: bufio.NewReaderSize(io.NewSectionReader(reg, 0, reg.Size()), 1<<16), h: h}
	var gotMagic [8]byte
	d.bytes(gotMagic[:])
	if d.err != nil || gotMagic != magic {
		return nil, ErrBadMagic
	}
	hd := &header{}
	v := d.u16()
	if d.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d", ErrVersion, v, Version)
	}
	hd.opt = readOptions(d)
	hd.t = readTable(d)
	hd.cols = readBinnings(d, hd.t)
	hd.emb = readEmbedding(d)
	hd.aff = readAffinity(d, hd.t)
	hd.counts = readBinCounts(d, hd.t, hd.cols)
	hd.appended = int(d.u64())
	if hd.residency = Residency(d.u8()); d.err == nil && hd.residency != Resident && hd.residency != Paged {
		d.fail("unknown residency %d", hd.residency)
	}
	hd.codeSec = readSection(d, codeFlags, "code", hd.t)
	hd.cellSec = readSection(d, cellFlags, "cell", hd.t)
	if d.err == nil && (hd.codeSec.image == nil) != (hd.cellSec.image == nil) {
		// A table's codes and cells page together: Save writes both as
		// images or both as shard maps.
		d.fail("the codes and cells sections use different variants")
	}
	if d.err != nil {
		return nil, d.err
	}
	// The images follow the header, each at the next 8-byte boundary.
	end := d.off
	for _, img := range []*span{hd.codeSec.image, hd.cellSec.image} {
		if img == nil {
			continue
		}
		pad := make([]byte, padding(end))
		if _, err := reg.ReadAt(pad, end); err != nil {
			return nil, fmt.Errorf("%w: truncated before an image", ErrCorrupt)
		}
		if slices.ContainsFunc(pad, func(b byte) bool { return b != 0 }) {
			return nil, fmt.Errorf("%w: nonzero padding at offset %d", ErrCorrupt, end)
		}
		h.Write(pad)
		img.off = end + int64(len(pad))
		end = img.off + img.n
	}
	hd.crcAt, hd.crc = end, h.Sum32()
	return hd, nil
}

// load reads the model file reg holds; a shard map resolves against dir
// ("" when the file has no directory).
func load(reg *blockfile.Region, dir string, lopt LoadOptions) (_ *core.Model, err error) {
	hd, err := readHeader(reg)
	if err != nil {
		return nil, err
	}
	// Verify the trailing checksum before trusting any of the decoded data
	// structurally beyond what decoding itself validated.
	var crc [4]byte
	if hd.crcAt+4 != reg.Size() {
		return nil, fmt.Errorf("%w: %d bytes, the sections and checksum end at %d", ErrCorrupt, reg.Size(), hd.crcAt+4)
	}
	if _, err := reg.ReadAt(crc[:], hd.crcAt); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(crc[:]) != hd.crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// The sources open before the model assembles over them: the images,
	// checked through reg — the file's handle, or the bytes Load read — and
	// then served from the file's mapping; or a shard map's files beside the
	// model, each checked against its identity checksum (with
	// AllowMissingShards, the shards that are here). A rejected model closes
	// them again, so it leaves no mapping behind.
	t := hd.t
	var codes binning.CodeSource
	var cells table.CellSource
	defer func() {
		for _, src := range []any{codes, cells} {
			if c, ok := src.(io.Closer); ok && err != nil {
				c.Close()
			}
		}
	}()
	switch {
	case hd.codeSec.image != nil:
		if err := verifyImages(reg, hd); err != nil {
			return nil, err
		}
		served := reg.Map()
		codeStore, cellStore, err := openImages(served, hd)
		served.Close()
		if err != nil {
			return nil, err
		}
		codes, cells = codeStore, cellStore
	case dir == "":
		return nil, fmt.Errorf("modelio: model references a %d-shard store; load with LoadFile", len(hd.codeSec.shards))
	default:
		src, err := shard.Open(dir, &shard.Map{Shards: hd.codeSec.shards}, t.NumCols(), lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded code store: %w", err)
		}
		codes = src
		cellShards, err := shard.OpenCells(dir, hd.cellSec.shards, t.ColumnNames(), lopt.AllowMissingShards)
		if err != nil {
			return nil, fmt.Errorf("modelio: opening sharded column store: %w", err)
		}
		cells = cellShards
	}
	b, err := binning.Restore(t, hd.cols, codes)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding binned representation: %v", ErrCorrupt, err)
	}
	m, err := core.Restore(t, b, hd.emb, hd.opt, hd.aff)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m.SeedBinCounts(hd.counts)
	if err := m.SetAppendedSinceRebin(hd.appended); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The cells attach last: the model is structurally whole, so geometry
	// validation runs against the verified schema.
	if err := m.AttachColumnStore(cells); err != nil {
		return nil, fmt.Errorf("%w: attaching column store: %v", ErrCorrupt, err)
	}
	return m, nil
}

// openImages opens the codes and cells images hd places in reg and checks
// their geometry against the schema hd decoded. Both are open, or on error
// neither.
func openImages(reg *blockfile.Region, hd *header) (*codestore.Store, *colstore.Store, error) {
	codes, err := codestore.OpenIn(reg, hd.codeSec.image.off, hd.codeSec.image.n)
	if err != nil {
		return nil, nil, imageError("codes", err)
	}
	cells, err := colstore.OpenIn(reg, hd.cellSec.image.off, hd.cellSec.image.n)
	if err != nil {
		codes.Close()
		return nil, nil, imageError("cells", err)
	}
	t := hd.t
	switch {
	case codes.NumRows() != t.NumRows() || codes.NumCols() != len(hd.cols):
		err = fmt.Errorf("%w: codes image is %dx%d, table is %dx%d", ErrCorrupt, codes.NumRows(), codes.NumCols(), t.NumRows(), len(hd.cols))
	case cells.NumRows() != t.NumRows() || cells.NumCols() != t.NumCols():
		err = fmt.Errorf("%w: cells image is %dx%d, table is %dx%d", ErrCorrupt, cells.NumRows(), cells.NumCols(), t.NumRows(), t.NumCols())
	}
	for c, col := range t.Columns() {
		if err == nil && (cells.ColumnName(c) != col.Name || cells.ColumnKind(c) != col.Kind) {
			err = fmt.Errorf("%w: cells image column %d is %q, table has %q", ErrCorrupt, c, cells.ColumnName(c), col.Name)
		}
	}
	if err != nil {
		codes.Close()
		cells.Close()
		return nil, nil, err
	}
	return codes, cells, nil
}

// verifyImages checks every page of both images hd places in reg against
// its recorded checksum, reading through reg.
func verifyImages(reg *blockfile.Region, hd *header) error {
	codes, cells, err := openImages(reg, hd)
	if err != nil {
		return err
	}
	defer codes.Close()
	defer cells.Close()
	if err := codes.Verify(); err != nil {
		return fmt.Errorf("%w: codes image: %v", ErrCorrupt, err)
	}
	if err := cells.Verify(); err != nil {
		return fmt.Errorf("%w: cells image: %v", ErrCorrupt, err)
	}
	return nil
}

// imageError is the error of a store image that failed to open: what
// ("codes" or "cells") names it, and an image in a store version the
// stores no longer read is refused with ErrVersion, any other failure with
// ErrCorrupt.
func imageError(what string, err error) error {
	sentinel := ErrCorrupt
	if errors.Is(err, blockfile.ErrVersion) {
		sentinel = ErrVersion
	}
	return fmt.Errorf("%w: %s image: %v", sentinel, what, err)
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

func readOptions(d *decoder) core.Options {
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
	o.Scale.Threshold = int(d.i64())
	o.Scale.SampleBudget = int(d.i64())
	o.Scale.BatchSize = int(d.i64())
	o.Scale.MaxIter = int(d.i64())
	return o
}

// writeSchema writes the table section: the schema husk of name, row
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

// readTable reads the table section's schema husk and returns the table
// it describes, marked paged at its row count: the cells live in the cells
// section.
func readTable(d *decoder) *table.Table {
	name := d.str()
	nRows := int(d.u32())
	nCols := int(d.u32())
	if d.err != nil {
		return nil
	}
	// Save writes no model without columns (it has no codes to store), so a
	// zero count is damage.
	if nCols == 0 || nCols > maxColumns {
		d.fail("column count %d out of range", nCols)
		return nil
	}
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

// The codes and the cells section each hold one of two variants behind a
// flag byte: the length of a store image after the header, or a row-range
// shard map. The two sections number their image flags differently, a
// numbering older versions set.
type sectionFlags struct{ image, shards uint8 }

var (
	codeFlags = sectionFlags{image: 1, shards: 2}
	cellFlags = sectionFlags{image: 0, shards: 2}
)

// section is one decoded codes or cells section: exactly one field is set.
type section struct {
	image  *span        // a store image inside the model file
	shards []shard.Desc // row-range shard files next to the model
}

// span is where a store image lies in the model file.
type span struct{ off, n int64 }

// maxImageBytes bounds an image's length field: the stores' geometry caps
// keep any real image far below it.
const maxImageBytes = 1 << 50

// outSection is a codes or cells section as Save writes it: a store image
// of size bytes that write streams after the header, or a shard map.
type outSection struct {
	size   int64
	write  func() error
	shards []shard.Desc
}

// writeHeader writes the section's flag and its length or shard map.
func (sec outSection) writeHeader(e *encoder, flags sectionFlags) {
	if sec.write != nil {
		e.u8(flags.image)
		e.u64(uint64(sec.size))
		return
	}
	e.u8(flags.shards)
	e.u32(uint32(len(sec.shards)))
	for _, d := range sec.shards {
		e.str(d.File)
		e.u64(uint64(d.Rows))
		e.u32(uint32(d.BlockRows))
		e.u32(d.Checksum)
	}
}

// pagedSection is the section of a store-backed source: the shard map when
// src is sharded, else a verbatim copy of its one store image into dst.
// what ("code" or "cell") names the source in errors.
func pagedSection(dst io.Writer, src any, what string) (outSection, error) {
	if sc, ok := src.(interface{ ShardDescs() []shard.Desc }); ok {
		descs := sc.ShardDescs()
		for i, d := range descs {
			if d.File == "" {
				return outSection{}, fmt.Errorf("modelio: %s shard %d has no file identity; only stores opened from a shard map can be saved", what, i)
			}
		}
		return outSection{shards: descs}, nil
	}
	img, ok := src.(interface {
		Size() int64
		WriteTo(io.Writer) (int64, error)
	})
	if !ok {
		return outSection{}, fmt.Errorf("modelio: the model's %s source %T cannot be saved", what, src)
	}
	return outSection{size: img.Size(), write: func() error {
		_, err := img.WriteTo(dst)
		return err
	}}, nil
}

// codesSection is the codes section of m: its resident codes encoded as a
// code store image streamed into dst, or its paged source's.
func codesSection(dst io.Writer, m *core.Model) (outSection, error) {
	mem, ok := m.B.Source().(binning.MemCodes)
	if !ok {
		return pagedSection(dst, m.B.Source(), "code")
	}
	w, err := codestore.CreateIn(dst, m.B.NumBins(), m.T.NumRows(), 0)
	if err != nil {
		return outSection{}, fmt.Errorf("modelio: encoding bin codes: %w", err)
	}
	return imageSection(w.Writer, func() error { return w.AppendColumns(mem) }), nil
}

// cellsSection is the cells section of m: its resident table's cells
// encoded as a column store image streamed into dst, or its cell source's.
func cellsSection(dst io.Writer, m *core.Model) (outSection, error) {
	if src := m.CellSource(); src != nil {
		return pagedSection(dst, src, "cell")
	}
	w, err := colstore.CreateIn(dst, m.T, 0)
	if err != nil {
		return outSection{}, fmt.Errorf("modelio: encoding table cells: %w", err)
	}
	return imageSection(w.Writer, func() error { return w.AppendRows(0, m.T.NumRows()) }), nil
}

// imageSection is the section of the image w streams once fill has
// appended every row.
func imageSection(w *blockfile.Writer, fill func() error) outSection {
	return outSection{size: w.Size(), write: func() error {
		if err := fill(); err != nil {
			return err
		}
		return w.Close()
	}}
}

// readSection reads a codes or cells section over t's rows: its variant
// flag, then the image length or the shard map. Other flags fail.
func readSection(d *decoder, flags sectionFlags, what string, t *table.Table) section {
	if d.err != nil || t == nil {
		return section{}
	}
	switch flag := d.u8(); {
	case d.err != nil:
		return section{}
	case flag == flags.image:
		n := d.u64()
		if d.err != nil {
			return section{}
		}
		if n > maxImageBytes {
			d.fail("%s image of %d bytes", what, n)
			return section{}
		}
		return section{image: &span{n: int64(n)}}
	case flag == flags.shards:
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
		if total != t.NumRows() {
			d.fail("%s shards hold %d rows, table has %d", what, total, t.NumRows())
			return section{}
		}
		return section{shards: descs}
	default:
		d.fail("unknown %s-section flag %d", what, flag)
		return section{}
	}
}

// writeBinnings serializes the per-column binnings; the codes travel in
// the codes section.
func writeBinnings(e *encoder, b *binning.Binned) {
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
}

// readBinnings reads the per-column binnings; the codes travel in the
// codes section.
func readBinnings(d *decoder, t *table.Table) []binning.ColumnBins {
	if d.err != nil {
		return nil
	}
	nCols := int(d.u32())
	if d.err != nil {
		return nil
	}
	if nCols != t.NumCols() {
		d.fail("binned representation has %d columns, table has %d", nCols, t.NumCols())
		return nil
	}
	cols := make([]binning.ColumnBins, nCols)
	for i := 0; i < nCols; i++ {
		cb := &cols[i]
		cb.Col = d.str()
		cb.Kind = table.Kind(d.u8())
		nLabels := int(d.u32())
		if d.err != nil {
			return nil
		}
		if nLabels > binning.MaxBinsLimit+1 {
			// Bin codes are uint16, so no column can have more bins.
			d.fail("column %d has %d bin labels", i, nLabels)
			return nil
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
		if d.err != nil {
			return nil
		}
	}
	return cols
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
	n   int64 // bytes written
	err error
	buf [8]byte
}

func (e *encoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
	e.n += int64(len(p))
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
	off int64 // bytes read
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
	d.off += int64(len(p))
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
