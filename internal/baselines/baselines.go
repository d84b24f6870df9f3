// Package baselines implements the six comparison algorithms of the paper's
// evaluation (§6.1):
//
//   - Random (RAN): repeated uniform draws within a budget, keeping the
//     sub-table with the best combined score.
//   - Naive clustering (NC): k-means directly over one-hot encoded rows and
//     over raw column value sequences, bypassing the embedding.
//   - Greedy (Algorithm 1): exhaustive column enumeration with (1-1/e)
//     greedy row selection by cell coverage.
//   - Semi-Greedy: Algorithm 1 traversing column combinations in random
//     order under a time budget.
//   - MAB: multi-armed bandit over row and column arms with UCB exploration.
//   - EmbDI: a graph-walk embedding in the style of Cappuzzo et al. (the
//     paper's reference [7]) followed by SubTab-style centroid selection.
package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/f32"
	"subtab/internal/metrics"
	"subtab/internal/word2vec"
)

// Result is a baseline's selected sub-table with its score and cost.
type Result struct {
	ST         metrics.SubTable
	Score      float64 // combined score under the caller's evaluator
	Elapsed    time.Duration
	Iterations int
}

// targetIndices resolves target column names against the evaluator's table.
func targetIndices(b *binning.Binned, targets []string) ([]int, error) {
	out := make([]int, 0, len(targets))
	for _, name := range targets {
		ci := b.T.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("baselines: unknown target column %q", name)
		}
		out = append(out, ci)
	}
	return out, nil
}

// RandomOptions configures the RAN baseline.
type RandomOptions struct {
	K, L    int
	Targets []string
	// TimeBudget bounds wall-clock time (paper: one minute). Zero means
	// iterations only.
	TimeBudget time.Duration
	// MaxIters bounds the number of draws (default 1000 when no budget).
	MaxIters int
	// RowPool restricts row candidates (e.g. to a query result); nil means
	// all rows.
	RowPool []int
	// ColPool restricts column candidates; nil means all columns.
	ColPool []int
	Seed    int64
}

// Random implements the RAN baseline: repeatedly draw k rows and l columns
// uniformly and keep the draw with the highest combined score.
func Random(e *metrics.Evaluator, opt RandomOptions) (*Result, error) {
	start := time.Now()
	tIdx, err := targetIndices(e.B, opt.Targets)
	if err != nil {
		return nil, err
	}
	n, m := e.B.NumRows(), e.B.NumCols()
	rowPool := opt.RowPool
	if rowPool == nil {
		rowPool = make([]int, n)
		for i := range rowPool {
			rowPool[i] = i
		}
	}
	colPool := opt.ColPool
	if colPool == nil {
		colPool = make([]int, m)
		for i := range colPool {
			colPool[i] = i
		}
	}
	if opt.K <= 0 || opt.L <= 0 || len(rowPool) == 0 || len(tIdx) > opt.L {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d (pool=%d, m=%d, targets=%d)", opt.K, opt.L, len(rowPool), m, len(tIdx))
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 1000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	best := &Result{Score: -1}
	iters := 0
	for {
		if opt.TimeBudget > 0 && time.Since(start) > opt.TimeBudget {
			break
		}
		if iters >= opt.MaxIters {
			break
		}
		iters++
		rows := sampleDistinct(rng, len(rowPool), opt.K)
		for i, ri := range rows {
			rows[i] = rowPool[ri]
		}
		sort.Ints(rows)
		st := metrics.SubTable{
			Rows: rows,
			Cols: sampleColsFromPool(rng, colPool, opt.L, tIdx),
		}
		if s := e.Combined(st); s > best.Score {
			best.Score = s
			best.ST = st
		}
	}
	best.Elapsed = time.Since(start)
	best.Iterations = iters
	return best, nil
}

// sampleColsFromPool draws l distinct columns from the pool, always
// including the targets.
func sampleColsFromPool(rng *rand.Rand, pool []int, l int, targets []int) []int {
	inTarget := make(map[int]bool, len(targets))
	for _, c := range targets {
		inTarget[c] = true
	}
	cand := make([]int, 0, len(pool))
	for _, c := range pool {
		if !inTarget[c] {
			cand = append(cand, c)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	out := append([]int(nil), targets...)
	for _, c := range cand {
		if len(out) >= l {
			break
		}
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// sampleDistinct draws k distinct indices from [0, n).
func sampleDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}

// sampleCols draws l distinct columns always including the targets.
func sampleCols(rng *rand.Rand, m, l int, targets []int) []int {
	inTarget := make(map[int]bool, len(targets))
	for _, c := range targets {
		inTarget[c] = true
	}
	pool := make([]int, 0, m)
	for c := 0; c < m; c++ {
		if !inTarget[c] {
			pool = append(pool, c)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]int(nil), targets...)
	for _, c := range pool {
		if len(out) >= l {
			break
		}
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// NCOptions configures the naive-clustering baseline.
type NCOptions struct {
	K, L    int
	Targets []string
	// RowPool restricts row candidates (nil = all rows); ColPool restricts
	// column candidates (nil = all columns).
	RowPool []int
	ColPool []int
	Seed    int64
}

// NaiveClustering implements the NC baseline: rows are one-hot encoded over
// all (column, bin) items and k-means clustered; columns are represented by
// their normalized bin-code sequences and clustered analogously. No
// embedding is involved — this is the paper's "clustering directly on T".
func NaiveClustering(e *metrics.Evaluator, opt NCOptions) (*Result, error) {
	start := time.Now()
	b := e.B
	tIdx, err := targetIndices(b, opt.Targets)
	if err != nil {
		return nil, err
	}
	n, m := b.NumRows(), b.NumCols()
	rowPool := opt.RowPool
	if rowPool == nil {
		rowPool = make([]int, n)
		for i := range rowPool {
			rowPool[i] = i
		}
	}
	colPool := opt.ColPool
	if colPool == nil {
		colPool = make([]int, m)
		for i := range colPool {
			colPool[i] = i
		}
	}
	if opt.K <= 0 || opt.L <= 0 || len(tIdx) > opt.L || len(rowPool) == 0 {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", opt.K, opt.L)
	}

	// Row one-hot vectors over the global item space, restricted to the
	// pool's rows and the pool's columns.
	dim := b.NumItems()
	rowVecs := make([][]float32, len(rowPool))
	for i, r := range rowPool {
		v := make([]float32, dim)
		for _, c := range colPool {
			v[b.Item(c, r)] = 1
		}
		rowVecs[i] = v
	}
	rowRes := cluster.KMeansMatrix(f32.FromRows(rowVecs), opt.K, cluster.Options{Seed: opt.Seed})
	rows := make([]int, 0, opt.K)
	for _, i := range rowRes.Representatives() {
		rows = append(rows, rowPool[i])
	}
	sort.Ints(rows)

	// Column vectors: the column's bin codes normalized by its bin count —
	// the "analogous" column treatment at the same resolution as the one-hot
	// rows.
	inTarget := make(map[int]bool, len(tIdx))
	for _, c := range tIdx {
		inTarget[c] = true
	}
	var candCols []int
	for _, c := range colPool {
		if !inTarget[c] {
			candCols = append(candCols, c)
		}
	}
	cols := append([]int(nil), tIdx...)
	if need := opt.L - len(tIdx); need > 0 && len(candCols) > 0 {
		colVecs := make([][]float32, len(candCols))
		for i, c := range candCols {
			v := make([]float32, len(rowPool))
			nb := float32(b.Cols[c].NumBins())
			for ri, r := range rowPool {
				v[ri] = float32(b.Code(c, r)) / nb
			}
			colVecs[i] = v
		}
		colRes := cluster.KMeansMatrix(f32.FromRows(colVecs), need, cluster.Options{Seed: opt.Seed + 1})
		for _, i := range colRes.Representatives() {
			cols = append(cols, candCols[i])
		}
	}
	sort.Ints(cols)
	st := metrics.SubTable{Rows: rows, Cols: cols}
	return &Result{ST: st, Score: e.Combined(st), Elapsed: time.Since(start), Iterations: 1}, nil
}

// GreedyOptions configures Algorithm 1 and its semi-greedy variant.
type GreedyOptions struct {
	K, L    int
	Targets []string
	// RandomOrder traverses column combinations in random order (the
	// semi-greedy variant of §6.1); otherwise lexicographic.
	RandomOrder bool
	// TimeBudget stops the traversal early (0 = exhaust all combinations;
	// only meaningful with RandomOrder per §4.2's caveat on guarantees).
	TimeBudget time.Duration
	// MaxCombos caps the number of column combinations examined (0 = all).
	MaxCombos int
	Seed      int64
}

// Greedy implements Algorithm 1: for every size-l column combination
// (including the targets), greedily select k rows maximizing cell coverage;
// across combinations keep the sub-table with the best combined score.
func Greedy(e *metrics.Evaluator, opt GreedyOptions) (*Result, error) {
	start := time.Now()
	b := e.B
	tIdx, err := targetIndices(b, opt.Targets)
	if err != nil {
		return nil, err
	}
	m := b.NumCols()
	if opt.K <= 0 || opt.L <= 0 || opt.L > m || len(tIdx) > opt.L {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", opt.K, opt.L)
	}
	inTarget := make(map[int]bool, len(tIdx))
	for _, c := range tIdx {
		inTarget[c] = true
	}
	var pool []int
	for c := 0; c < m; c++ {
		if !inTarget[c] {
			pool = append(pool, c)
		}
	}
	need := opt.L - len(tIdx)

	combos := enumerateCombos(len(pool), need)
	if opt.RandomOrder {
		rng := rand.New(rand.NewSource(opt.Seed))
		rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	}
	if opt.MaxCombos > 0 && len(combos) > opt.MaxCombos {
		combos = combos[:opt.MaxCombos]
	}

	best := &Result{Score: -1}
	examined := 0
	for _, combo := range combos {
		if opt.TimeBudget > 0 && time.Since(start) > opt.TimeBudget && examined > 0 {
			break
		}
		examined++
		cols := append([]int(nil), tIdx...)
		for _, pi := range combo {
			cols = append(cols, pool[pi])
		}
		sort.Ints(cols)
		rows := greedyRowSelection(e, cols, opt.K)
		st := metrics.SubTable{Rows: rows, Cols: cols}
		if s := e.Combined(st); s > best.Score {
			best.Score = s
			best.ST = st
		}
	}
	best.Elapsed = time.Since(start)
	best.Iterations = examined
	return best, nil
}

// greedyRowSelection is GreedyRowSelection of Algorithm 1: k rounds, each
// adding the row with the largest marginal cell-coverage gain over the fixed
// column set. Coverage is maintained incrementally: per-column bitsets of
// described rows plus the set of already-covered rules.
func greedyRowSelection(e *metrics.Evaluator, cols []int, k int) []int {
	b := e.B
	n := b.NumRows()
	colSet := make(map[int]bool, len(cols))
	for _, c := range cols {
		colSet[c] = true
	}
	// Relevant rules (columns within the selection), indexed by row.
	rowRules := make([][]int32, n)
	for ri := range e.Rules {
		r := &e.Rules[ri]
		ok := true
		for _, c := range r.Cols {
			if !colSet[c] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		r.Tuples.ForEach(func(row int) bool {
			rowRules[row] = append(rowRules[row], int32(ri))
			return true
		})
	}

	covered := make(map[int32]bool)
	acc := make(map[int]*bitset.Set, len(cols))
	for _, c := range cols {
		acc[c] = bitset.New(n)
	}
	scratch := make(map[int]*bitset.Set, len(cols))
	for _, c := range cols {
		scratch[c] = bitset.New(n)
	}

	var rows []int
	chosen := make([]bool, n)
	if k > n {
		k = n
	}
	for len(rows) < k {
		bestRow, bestGain := -1, -1
		for t := 0; t < n; t++ {
			if chosen[t] {
				continue
			}
			gain := 0
			if len(rowRules[t]) > 0 {
				touched := make(map[int]bool)
				for _, ri := range rowRules[t] {
					if covered[ri] {
						continue
					}
					r := &e.Rules[ri]
					for _, c := range r.Cols {
						if !touched[c] {
							touched[c] = true
							scratch[c].Clear()
						}
						scratch[c].Or(r.Tuples)
					}
				}
				for c := range touched {
					scratch[c].AndNot(acc[c])
					gain += scratch[c].Count()
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestRow = t
			}
		}
		if bestRow < 0 {
			break
		}
		chosen[bestRow] = true
		rows = append(rows, bestRow)
		for _, ri := range rowRules[bestRow] {
			if covered[ri] {
				continue
			}
			covered[ri] = true
			r := &e.Rules[ri]
			for _, c := range r.Cols {
				acc[c].Or(r.Tuples)
			}
		}
	}
	sort.Ints(rows)
	return rows
}

// enumerateCombos lists all k-subsets of [0, n) as index slices.
func enumerateCombos(n, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if k > n {
		return nil
	}
	var out [][]int
	combo := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for i := start; i <= n-(k-pos); i++ {
			combo[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return out
}

// MABOptions configures the multi-armed-bandit baseline.
type MABOptions struct {
	K, L    int
	Targets []string
	// Iterations of select-evaluate-update (default 500).
	Iterations int
	// TimeBudget stops early when positive.
	TimeBudget time.Duration
	// Exploration is the UCB exploration constant (default sqrt(2)).
	Exploration float64
	Seed        int64
}

// MAB implements the multi-armed-bandit baseline of §6.1: every row and
// every column is an arm; each iteration picks the k rows and l columns with
// the highest upper confidence bounds, evaluates the resulting sub-table,
// and credits the reward to all participating arms. As in the paper, "the
// reward (i.e. the cell coverage score) is given to all the columns and rows
// that participated" — the bandit optimizes coverage, which is why its
// returned sub-tables score poorly on the diversity-balanced combined
// metric. The best sub-table seen (by reward) is returned with its combined
// score.
func MAB(e *metrics.Evaluator, opt MABOptions) (*Result, error) {
	start := time.Now()
	b := e.B
	tIdx, err := targetIndices(b, opt.Targets)
	if err != nil {
		return nil, err
	}
	n, m := b.NumRows(), b.NumCols()
	if opt.K <= 0 || opt.L <= 0 || opt.K > n || len(tIdx) > opt.L {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", opt.K, opt.L)
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 500
	}
	if opt.Exploration <= 0 {
		opt.Exploration = math.Sqrt2
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	inTarget := make(map[int]bool, len(tIdx))
	for _, c := range tIdx {
		inTarget[c] = true
	}

	rowSum := make([]float64, n)
	rowCnt := make([]float64, n)
	colSum := make([]float64, m)
	colCnt := make([]float64, m)

	ucb := func(sum, cnt float64, t int) float64 {
		if cnt == 0 {
			return math.Inf(1)
		}
		return sum/cnt + opt.Exploration*math.Sqrt(math.Log(float64(t+1))/cnt)
	}

	best := &Result{Score: -1}
	bestReward := -1.0
	iters := 0
	for it := 0; it < opt.Iterations; it++ {
		if opt.TimeBudget > 0 && time.Since(start) > opt.TimeBudget && iters > 0 {
			break
		}
		iters++
		rows := topArms(n, opt.K, rng, func(i int) float64 { return ucb(rowSum[i], rowCnt[i], it) }, nil)
		cols := topArms(m, opt.L-len(tIdx), rng, func(i int) float64 { return ucb(colSum[i], colCnt[i], it) }, inTarget)
		cols = append(cols, tIdx...)
		sort.Ints(cols)
		st := metrics.SubTable{Rows: rows, Cols: cols}
		reward := e.CellCoverage(st)
		for _, r := range rows {
			rowSum[r] += reward
			rowCnt[r]++
		}
		for _, c := range cols {
			colSum[c] += reward
			colCnt[c]++
		}
		if reward > bestReward {
			bestReward = reward
			best.ST = st
		}
	}
	best.Score = e.Combined(best.ST)
	best.Elapsed = time.Since(start)
	best.Iterations = iters
	return best, nil
}

// topArms returns the k arms with the highest scores, breaking ties (and
// infinities) randomly; excluded arms are skipped.
func topArms(n, k int, rng *rand.Rand, score func(int) float64, exclude map[int]bool) []int {
	type arm struct {
		i   int
		s   float64
		tie float64
	}
	arms := make([]arm, 0, n)
	for i := 0; i < n; i++ {
		if exclude != nil && exclude[i] {
			continue
		}
		arms = append(arms, arm{i, score(i), rng.Float64()})
	}
	sort.Slice(arms, func(a, b int) bool {
		if arms[a].s != arms[b].s {
			return arms[a].s > arms[b].s
		}
		return arms[a].tie < arms[b].tie
	})
	if k > len(arms) {
		k = len(arms)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = arms[i].i
	}
	sort.Ints(out)
	return out
}

// EmbDIOptions configures the graph-walk embedding baseline.
type EmbDIOptions struct {
	K, L    int
	Targets []string
	// WalksPerNode and WalkLength shape the random-walk corpus (defaults 10
	// and 20); the larger corpus is what makes EmbDI's pre-processing ~26x
	// slower than SubTab's in the paper.
	WalksPerNode int
	WalkLength   int
	Embedding    word2vec.Options
	Seed         int64
}

// EmbDI implements the EmbDI-style baseline (reference [7]): the table is
// turned into a tripartite graph of row nodes, column nodes and (column,
// bin) value nodes; random walks over the graph form sentences; Word2Vec
// embeds the nodes; rows and columns are then selected by the same k-means
// centroid procedure SubTab uses, but over the node embeddings.
func EmbDI(e *metrics.Evaluator, opt EmbDIOptions) (*Result, error) {
	start := time.Now()
	b := e.B
	tIdx, err := targetIndices(b, opt.Targets)
	if err != nil {
		return nil, err
	}
	n, m := b.NumRows(), b.NumCols()
	if opt.K <= 0 || opt.L <= 0 || len(tIdx) > opt.L {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", opt.K, opt.L)
	}
	if opt.WalksPerNode <= 0 {
		opt.WalksPerNode = 10
	}
	if opt.WalkLength <= 0 {
		opt.WalkLength = 20
	}

	// Node id space: rows, then columns, then items.
	rowNode := func(r int) int32 { return int32(r) }
	colNode := func(c int) int32 { return int32(n + c) }
	itemNode := func(item int32) int32 { return int32(n+m) + item }

	// Adjacency: item -> rows is derivable from codes; build item->rows.
	itemRows := make(map[int32][]int32)
	for c := 0; c < m; c++ {
		for r := 0; r < n; r++ {
			it := b.Item(c, r)
			itemRows[it] = append(itemRows[it], int32(r))
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	var sents [][]int32
	walk := func(startRow int) []int32 {
		sent := make([]int32, 0, opt.WalkLength)
		r := startRow
		for len(sent) < opt.WalkLength {
			sent = append(sent, rowNode(r))
			c := rng.Intn(m)
			it := b.Item(c, r)
			sent = append(sent, colNode(c), itemNode(it))
			peers := itemRows[it]
			r = int(peers[rng.Intn(len(peers))])
		}
		return sent
	}
	for r := 0; r < n; r++ {
		for w := 0; w < opt.WalksPerNode; w++ {
			sents = append(sents, walk(r))
		}
	}

	emb := opt.Embedding
	if emb.Seed == 0 {
		emb.Seed = opt.Seed
	}
	model := word2vec.Train(sents, emb)

	// Row and column vectors straight from the node embeddings.
	dim := model.Dim()
	rowVecs := make([][]float32, n)
	for r := 0; r < n; r++ {
		v := model.Vector(rowNode(r))
		if v == nil {
			v = make([]float32, dim)
		}
		rowVecs[r] = v
	}
	rowRes := cluster.KMeansMatrix(f32.FromRows(rowVecs), opt.K, cluster.Options{Seed: opt.Seed})
	rows := rowRes.Representatives()

	inTarget := make(map[int]bool, len(tIdx))
	for _, c := range tIdx {
		inTarget[c] = true
	}
	var candCols []int
	for c := 0; c < m; c++ {
		if !inTarget[c] {
			candCols = append(candCols, c)
		}
	}
	cols := append([]int(nil), tIdx...)
	if need := opt.L - len(tIdx); need > 0 && len(candCols) > 0 {
		colVecs := make([][]float32, len(candCols))
		for i, c := range candCols {
			v := model.Vector(colNode(c))
			if v == nil {
				v = make([]float32, dim)
			}
			colVecs[i] = v
		}
		colRes := cluster.KMeansMatrix(f32.FromRows(colVecs), need, cluster.Options{Seed: opt.Seed + 1})
		for _, i := range colRes.Representatives() {
			cols = append(cols, candCols[i])
		}
	}
	sort.Ints(cols)
	sort.Ints(rows)
	st := metrics.SubTable{Rows: rows, Cols: cols}
	return &Result{ST: st, Score: e.Combined(st), Elapsed: time.Since(start), Iterations: 1}, nil
}

// BruteForce finds the optimal sub-table by exhaustive search — usable only
// on tiny tables; it is the reference for the greedy guarantee tests.
func BruteForce(e *metrics.Evaluator, k, l int) (*Result, error) {
	start := time.Now()
	b := e.B
	n, m := b.NumRows(), b.NumCols()
	if k <= 0 || l <= 0 || k > n || l > m {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", k, l)
	}
	rowCombos := enumerateCombos(n, k)
	colCombos := enumerateCombos(m, l)
	best := &Result{Score: -1}
	for _, rows := range rowCombos {
		for _, cols := range colCombos {
			st := metrics.SubTable{Rows: rows, Cols: cols}
			if s := e.Combined(st); s > best.Score {
				best.Score = s
				best.ST = metrics.SubTable{
					Rows: append([]int(nil), rows...),
					Cols: append([]int(nil), cols...),
				}
			}
		}
	}
	best.Elapsed = time.Since(start)
	best.Iterations = len(rowCombos) * len(colCombos)
	return best, nil
}

// BruteForceMaxCoverage finds the coverage-optimal sub-table (α = 1), the
// OPT of Prop. 4.3.
func BruteForceMaxCoverage(e *metrics.Evaluator, k, l int) (*Result, error) {
	start := time.Now()
	b := e.B
	n, m := b.NumRows(), b.NumCols()
	if k <= 0 || l <= 0 || k > n || l > m {
		return nil, fmt.Errorf("baselines: bad dimensions k=%d l=%d", k, l)
	}
	best := &Result{Score: -1}
	for _, rows := range enumerateCombos(n, k) {
		for _, cols := range enumerateCombos(m, l) {
			st := metrics.SubTable{Rows: rows, Cols: cols}
			if s := e.CellCoverage(st); s > best.Score {
				best.Score = s
				best.ST = metrics.SubTable{
					Rows: append([]int(nil), rows...),
					Cols: append([]int(nil), cols...),
				}
			}
		}
	}
	best.Elapsed = time.Since(start)
	return best, nil
}
