package core

import (
	"math"
	"sort"

	"subtab/internal/cluster"
	"subtab/internal/f32"
)

// The column step of a selection (Alg. 2 lines 13-17): three strategies
// over the candidate columns left after the targets are forced in.

// centroidColumns is the literal Algorithm 2 column step: k-means over the
// column-mean vectors, one representative per cluster. code is where the
// column vectors read their codes (the model's own, or a coordinator's
// overlay); the gather arithmetic is identical either way.
func (m *Model) centroidColumns(candCols []int, rows rowSet, need int, code func(c, r int) uint16) []int {
	colVecs := f32.New(len(candCols), m.Emb.Dim())
	f32.ParallelRange(len(candCols), f32.Workers(len(candCols)), func(start, end int) {
		idx := make([]int32, rows.n)
		for i := start; i < end; i++ {
			c := candCols[i]
			for j := range idx {
				idx[j] = m.itemRow[m.B.ItemOf(c, int(code(c, rows.at(j))))]
			}
			f32.MeanPoolInto(colVecs.Row(i), m.items, idx)
		}
	})
	colRes := cluster.KMeansMatrix(colVecs, need, cluster.Options{Seed: m.Opt.ClusterSeed + 1})
	out := make([]int, 0, need)
	for _, i := range colRes.RepresentativesMatrix(colVecs) {
		out = append(out, candCols[i])
	}
	return out
}

// patternGroupColumns groups candidate columns by pairwise association
// affinity (precomputed globally at pre-processing time) and spends the
// budget on whole groups (largest mass first), padding any remaining budget
// with the columns of highest salience.
func (m *Model) patternGroupColumns(candCols []int, need int) []int {
	mcols := len(candCols)
	if need >= mcols {
		return append([]int(nil), candCols...)
	}

	// Pairwise affinities from the precomputed global matrix.
	aff := make([][]float64, mcols)
	for i := range aff {
		aff[i] = make([]float64, mcols)
	}
	var vals []float64
	for i := 0; i < mcols; i++ {
		for j := i + 1; j < mcols; j++ {
			a := m.ColumnAffinity(candCols[i], candCols[j])
			aff[i][j], aff[j][i] = a, a
			vals = append(vals, a)
		}
	}
	if len(vals) == 0 {
		return candCols[:need]
	}
	mean, std := meanStd(vals)
	threshold := mean + 0.75*std

	// Union-find over strong edges.
	parent := make([]int, mcols)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < mcols; i++ {
		for j := i + 1; j < mcols; j++ {
			if aff[i][j] >= threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int{}
	for i := range parent {
		groups[find(i)] = append(groups[find(i)], i)
	}
	// Salience of a column: its strongest affinity to any other column.
	salience := make([]float64, mcols)
	for i := 0; i < mcols; i++ {
		best := math.Inf(-1)
		for j := 0; j < mcols; j++ {
			if j != i && aff[i][j] > best {
				best = aff[i][j]
			}
		}
		salience[i] = best
	}
	type group struct {
		members []int
		mass    float64
	}
	var ranked []group
	for _, g := range groups {
		if len(g) < 2 {
			continue // singletons join the salience pool
		}
		mass := 0.0
		for _, i := range g {
			for _, j := range g {
				if i < j {
					mass += aff[i][j] - mean // positive part above background
				}
			}
		}
		// Order members as a greedy affinity core — start from the group's
		// strongest pair, then repeatedly append the member with the highest
		// total affinity to the members already kept — so that truncation
		// preserves tightly associated column sets (the rule-bearing cores)
		// rather than weakly connected hubs.
		ranked = append(ranked, group{members: greedyCore(aff, g), mass: mass})
	}
	sort.Slice(ranked, func(x, y int) bool {
		if len(ranked[x].members) != len(ranked[y].members) {
			return len(ranked[x].members) > len(ranked[y].members)
		}
		return ranked[x].mass > ranked[y].mass
	})

	picked := make([]int, 0, need)
	taken := make([]bool, mcols)
	for _, g := range ranked {
		for _, i := range g.members {
			if len(picked) >= need {
				break
			}
			picked = append(picked, candCols[i])
			taken[i] = true
		}
	}
	// Pad with the most salient leftover columns.
	if len(picked) < need {
		rest := make([]int, 0, mcols)
		for i := 0; i < mcols; i++ {
			if !taken[i] {
				rest = append(rest, i)
			}
		}
		sort.Slice(rest, func(x, y int) bool { return salience[rest[x]] > salience[rest[y]] })
		for _, i := range rest {
			if len(picked) >= need {
				break
			}
			picked = append(picked, candCols[i])
		}
	}
	return picked
}

// greedyCore orders a group's members by greedy max-affinity growth: the
// strongest pair first, then whichever member is most affine to the kept
// set.
func greedyCore(aff [][]float64, group []int) []int {
	if len(group) <= 2 {
		return group
	}
	bi, bj, best := group[0], group[1], math.Inf(-1)
	for x := 0; x < len(group); x++ {
		for y := x + 1; y < len(group); y++ {
			if a := aff[group[x]][group[y]]; a > best {
				bi, bj, best = group[x], group[y], a
			}
		}
	}
	kept := []int{bi, bj}
	inKept := map[int]bool{bi: true, bj: true}
	for len(kept) < len(group) {
		bestM, bestA := -1, math.Inf(-1)
		for _, m := range group {
			if inKept[m] {
				continue
			}
			a := 0.0
			for _, kmem := range kept {
				a += aff[m][kmem]
			}
			if a > bestA {
				bestM, bestA = m, a
			}
		}
		kept = append(kept, bestM)
		inKept[bestM] = true
	}
	return kept
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

// biasedColumns is the session-weighted column step: each candidate scores
// (1 + salience) × bias, where salience is the column's strongest affinity
// to any other candidate (patternGroupColumns' measure) and bias is the
// caller's per-source-column multiplier (null-rate and view-count
// penalties). The top need columns win; ties break to the lower column
// index, so the pick is deterministic.
func (m *Model) biasedColumns(candCols []int, need int, bias []float64) []int {
	if need >= len(candCols) {
		return append([]int(nil), candCols...)
	}
	type scored struct {
		c int
		s float64
	}
	sc := make([]scored, len(candCols))
	for i, c := range candCols {
		sal := 0.0
		for j, o := range candCols {
			if j != i {
				if a := m.ColumnAffinity(c, o); a > sal {
					sal = a
				}
			}
		}
		b := 1.0
		if c < len(bias) {
			b = bias[c]
		}
		sc[i] = scored{c: c, s: (1 + sal) * b}
	}
	sort.Slice(sc, func(x, y int) bool {
		if sc[x].s != sc[y].s {
			return sc[x].s > sc[y].s
		}
		return sc[x].c < sc[y].c
	})
	out := make([]int, need)
	for i := range out {
		out[i] = sc[i].c
	}
	sort.Ints(out)
	return out
}
