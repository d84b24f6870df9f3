// Package word2vec implements skip-gram word embedding with negative
// sampling (Mikolov et al., the paper's reference [21]) over integer tokens.
// It is the embedding engine behind SubTab's pre-processing phase, replacing
// gensim in the paper's Python implementation.
//
// Tokens are the global (column, bin) item ids produced by package binning.
// Algorithm 2 sets windowSize = max{n, m}, i.e. every token of a sentence is
// context for every other; enumerating all O(L²) pairs is infeasible for
// column-sentences, so for each center token we sample up to Window context
// positions uniformly from the rest of the sentence — the expected gradient
// matches the full-window objective at a fraction of the cost.
package word2vec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"subtab/internal/f32"
)

// MaxDim is the largest embedding dimensionality a model file holds.
const MaxDim = 1 << 16

// Options configures training.
type Options struct {
	// Dim is the embedding dimensionality (default 32, at most MaxDim).
	Dim int
	// Window is the number of context tokens sampled per center token
	// (default 5). The effective window is the whole sentence, as in
	// Algorithm 2; Window only bounds the per-center sample.
	Window int
	// Negatives is the number of negative samples per positive pair
	// (default 4). Every pair gets exactly this many negative updates, and
	// they are pairwise distinct: a draw that collides with the positive
	// context or with an already-accepted negative of the same slot is
	// resampled (bounded, so a degenerate vocabulary with fewer tokens than
	// slots skips the unfillable negatives rather than spinning), not
	// silently dropped.
	Negatives int
	// Epochs is the number of passes over the corpus (default 3).
	Epochs int
	// LearningRate is the initial SGD step size (default 0.025), decaying
	// linearly to LearningRate/100 over training.
	LearningRate float64
	// Seed drives initialization and sampling.
	Seed int64
	// Workers is the number of parallel training goroutines (default
	// runtime.NumCPU()). Training is deterministic at ANY worker count:
	// the sharded-gradient schedule (see engine.go) makes the trained
	// vectors a pure function of (corpus, Options), byte-identical whether
	// the chunks run serially or fanned out. Workers only trades wall-clock
	// time; effective parallelism is capped at the engine's round size.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Dim <= 0 {
		o.Dim = 32
	}
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.Negatives <= 0 {
		o.Negatives = 4
	}
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.025
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Model holds trained token vectors.
type Model struct {
	dim    int
	vocab  map[int32]int32 // token -> dense index
	tokens []int32         // dense index -> token
	vecs   []float32       // input vectors, len = |vocab| * dim
	ctx    []float32       // output (context) vectors, len = |vocab| * dim
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Tokens returns the trained tokens in dense-index order. The returned slice
// aliases model memory and must not be mutated.
func (m *Model) Tokens() []int32 { return m.tokens }

// VectorData returns the input-vector matrix as one flat slice of
// len(Tokens())*Dim() float32s, row i holding the vector of Tokens()[i]. It
// aliases model memory and must not be mutated; it exists so the model can be
// serialized (package modelio).
func (m *Model) VectorData() []float32 { return m.vecs }

// ContextData returns the output (context) vector matrix in the same layout
// as VectorData. It aliases model memory and must not be mutated.
func (m *Model) ContextData() []float32 { return m.ctx }

// VectorMatrix returns the input-vector table as a zero-copy flat matrix
// view: row Index(tok) is Vector(tok). It aliases model memory and must not
// be mutated; it exists so downstream stages (package core) can address the
// whole embedding table without copying it row by row.
func (m *Model) VectorMatrix() f32.Matrix {
	return f32.Wrap(len(m.tokens), m.dim, m.vecs)
}

// Index returns the dense row index of tok in VectorMatrix,
// or -1 when the token was not seen in training.
func (m *Model) Index(tok int32) int32 {
	if i, ok := m.vocab[tok]; ok {
		return i
	}
	return -1
}

// Restore rebuilds a trained model from its serialized parts: the token list
// (dense-index order) and the flat input/output matrices as returned by
// VectorData/ContextData. The slices are retained, not copied.
func Restore(dim int, tokens []int32, vecs, ctx []float32) (*Model, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("word2vec: restore: dimension %d must be positive", dim)
	}
	if len(vecs) != len(tokens)*dim || len(ctx) != len(tokens)*dim {
		return nil, fmt.Errorf("word2vec: restore: %d tokens at dim %d need %d floats per matrix, got %d input / %d output",
			len(tokens), dim, len(tokens)*dim, len(vecs), len(ctx))
	}
	m := &Model{dim: dim, vocab: make(map[int32]int32, len(tokens)), tokens: tokens, vecs: vecs, ctx: ctx}
	for i, tok := range tokens {
		if _, dup := m.vocab[tok]; dup {
			return nil, fmt.Errorf("word2vec: restore: duplicate token %d", tok)
		}
		m.vocab[tok] = int32(i)
	}
	return m, nil
}

// VocabSize returns the number of distinct tokens.
func (m *Model) VocabSize() int { return len(m.tokens) }

// ApproxBytes estimates the model's resident heap bytes: both vector
// matrices, the token list, and the token→index map (~24 bytes per entry
// counted flat).
func (m *Model) ApproxBytes() int64 {
	return int64(len(m.vecs))*4 + int64(len(m.ctx))*4 +
		int64(len(m.tokens))*4 + int64(len(m.vocab))*24
}

// HasToken reports whether the token was seen in training.
func (m *Model) HasToken(tok int32) bool {
	_, ok := m.vocab[tok]
	return ok
}

// Vector returns the input embedding of tok, or nil when unseen. The
// returned slice aliases model memory and must not be mutated.
func (m *Model) Vector(tok int32) []float32 {
	i, ok := m.vocab[tok]
	if !ok {
		return nil
	}
	return m.vecs[int(i)*m.dim : (int(i)+1)*m.dim]
}

// ContextVector returns the output (context) embedding of tok, or nil when
// unseen. Skip-gram with negative sampling factorizes the corpus PMI matrix
// into input·output products (Levy & Goldberg 2014), so
// Vector(a)·ContextVector(b) measures how strongly a and b co-occur — the
// first-order association signal, as opposed to the input-input cosine
// which measures second-order (distributional) similarity.
func (m *Model) ContextVector(tok int32) []float32 {
	i, ok := m.vocab[tok]
	if !ok {
		return nil
	}
	return m.ctx[int(i)*m.dim : (int(i)+1)*m.dim]
}

// Association returns the symmetrized input·output dot product of two
// tokens — an estimate of their shifted PMI (0 for unseen tokens).
func (m *Model) Association(a, b int32) float64 {
	va, cb := m.Vector(a), m.ContextVector(b)
	vb, ca := m.Vector(b), m.ContextVector(a)
	if va == nil || vb == nil {
		return 0
	}
	return (Dot(va, cb) + Dot(vb, ca)) / 2
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float32) float64 { return f32.Dot(a, b) }

// Similarity returns the cosine similarity of two tokens (0 when either is
// unseen or has a zero vector).
func (m *Model) Similarity(a, b int32) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	return Cosine(va, vb)
}

// Cosine returns the cosine similarity of two vectors (0 for zero vectors).
func Cosine(a, b []float32) float64 { return f32.Cosine(a, b) }

const (
	// unigramMax caps the negative-sampling table; unigramPerToken sets its
	// granularity. Sizing the table to the vocabulary (instead of a flat
	// 2^20 entries) keeps it cache-resident: the training loop hits it with
	// Negatives uniform random reads per pair, and on tabular vocabularies
	// (a few thousand (column,bin) items) those reads were the single
	// largest source of cache misses in the old trainer.
	unigramMax      = 1 << 20
	unigramPerToken = 8
)

// Train learns token embeddings from the corpus. Sentences are slices of
// token ids; sentences shorter than 2 tokens contribute vocabulary but no
// training pairs. The trained vectors are a pure function of (sentences,
// opt): the deterministic sharded-gradient engine (engine.go) produces
// byte-identical output at any Workers setting.
func Train(sentences [][]int32, opt Options) *Model {
	opt = opt.withDefaults()
	m := &Model{dim: opt.Dim, vocab: make(map[int32]int32)}

	// Vocabulary, counts, and dense-index re-encoding in one pass.
	var counts []int64
	dense := absorb(sentences, m.vocab, &m.tokens, &counts)
	v := len(m.tokens)
	if v == 0 {
		return m
	}

	// Init: input vectors uniform in [-0.5/dim, 0.5/dim), output vectors 0.
	rng := rand.New(rand.NewSource(opt.Seed))
	m.vecs = make([]float32, v*opt.Dim)
	m.ctx = make([]float32, v*opt.Dim)
	for i := range m.vecs {
		m.vecs[i] = (rng.Float32() - 0.5) / float32(opt.Dim)
	}

	chunks, epochCenters := buildChunks(dense)
	t := &trainer{
		dim: opt.Dim, vecs: m.vecs, ctx: m.ctx,
		sents: dense, chunks: chunks,
		epochCenters: epochCenters,
		total:        epochCenters * int64(opt.Epochs),
		unigram:      buildUnigram(counts),
		opt:          opt, frozen: 0, rows: v,
	}
	t.run()
	return m
}

// buildUnigram builds the negative-sampling table: dense token indices
// appear proportionally to count^0.75 (zero-count tokens — FineTune's
// pre-existing vocabulary — still get one slot each, so they participate as
// negatives). The table is sized to the vocabulary, unigramPerToken entries
// per token up to unigramMax, so it stays cache-resident under the training
// loop's random reads.
func buildUnigram(counts []int64) []int32 {
	total := 0.0
	pows := make([]float64, len(counts))
	for i, c := range counts {
		pows[i] = math.Pow(float64(c), 0.75)
		total += pows[i]
	}
	size := len(counts) * unigramPerToken
	if size > unigramMax {
		size = unigramMax
	}
	if size < len(counts) {
		size = len(counts)
	}
	table := make([]int32, 0, size)
	for i, p := range pows {
		n := int(p / total * float64(size))
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, int32(i))
		}
	}
	return table
}
