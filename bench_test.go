// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one testing.B benchmark per artifact, plus micro-benchmarks of the
// pipeline stages. Shapes, not absolute times, are the reproduction target;
// `go run ./cmd/subtab-experiments` prints the measured tables and figures.
package subtab_test

import (
	"testing"

	"subtab"
	"subtab/internal/baselines"
	"subtab/internal/binning"
	"subtab/internal/cluster"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/experiments"
	"subtab/internal/f32"
	"subtab/internal/metrics"
	"subtab/internal/rules"
	"subtab/internal/word2vec"
)

// benchLab builds the shared bench-scale lab once.
func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	l := experiments.NewLab(42)
	l.Rows = map[string]int{"FL": 3000, "CC": 2500, "SP": 2500, "CY": 2000, "BL": 2500, "USF": 500}
	l.Workers = 0
	return l
}

// BenchmarkTable1UserStudy regenerates Table 1 + Figure 5 (the simulated
// user study over SP, FL and BL).
func BenchmarkTable1UserStudy(b *testing.B) {
	l := benchLab(b)
	if _, err := l.UserStudy(); err != nil { // warm caches outside the loop
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.UserStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Simulation regenerates Figure 6 (EDA-session fragment
// capture on CY, widths 3-7).
func BenchmarkFig6Simulation(b *testing.B) {
	l := benchLab(b)
	if _, err := l.Prepare("CY"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig6(24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SlowBaselines regenerates Figure 7 (quality and relative
// time of EmbDI, MAB, semi-greedy and RAN vs SubTab on FL).
func BenchmarkFig7SlowBaselines(b *testing.B) {
	l := benchLab(b)
	if _, err := l.Prepare("FL"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Quality regenerates Figure 8 (diversity / cell coverage /
// combined for SubTab, RAN, NC over FL, SP, CY).
func BenchmarkFig8Quality(b *testing.B) {
	l := benchLab(b)
	for _, ds := range []string{"FL", "SP", "CY"} {
		if _, err := l.Prepare(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Preprocess measures the pre-processing phase (binning +
// corpus + embedding) on the FL dataset — the tall bars of Figure 9.
func BenchmarkFig9Preprocess(b *testing.B) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := subtab.DefaultOptions()
	opt.Embedding = subtab.EmbeddingOptions{Dim: 24, Epochs: 3, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subtab.Preprocess(ds.T, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Selection measures the per-display selection phase — the
// short bars of Figure 9 (the interactivity claim).
func BenchmarkFig9Selection(b *testing.B) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := subtab.DefaultOptions()
	opt.Embedding = subtab.EmbeddingOptions{Dim: 24, Epochs: 3, Seed: 1}
	model, err := subtab.Preprocess(ds.T, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Select(10, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Tuning regenerates Figure 10 (cell coverage under varied
// bins / support / confidence for fixed sub-tables, FL+SP average).
func BenchmarkFig10Tuning(b *testing.B) {
	l := benchLab(b)
	for _, ds := range []string{"FL", "SP"} {
		if _, err := l.Prepare(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the pipeline stages and ablations.
// ---------------------------------------------------------------------------

func benchBinned(b *testing.B, n int) *binning.Binned {
	b.Helper()
	ds, err := datagen.ByName("FL", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	bn, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return bn
}

// BenchmarkBinningKDE measures KDE-valley binning of the FL table.
func BenchmarkBinningKDE(b *testing.B) {
	ds, err := datagen.ByName("FL", 5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAprioriMining measures rule mining at the paper's default
// thresholds (support 0.1, confidence 0.6, min size 3).
func BenchmarkAprioriMining(b *testing.B) {
	bn := benchBinned(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.Mine(bn, rules.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWord2VecTraining measures skip-gram training over the tabular
// corpus (tuple-sentences, the default).
func BenchmarkWord2VecTraining(b *testing.B) {
	bn := benchBinned(b, 3000)
	sents := corpus.Build(bn, corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word2vec.Train(sents, word2vec.Options{Dim: 24, Epochs: 3, Seed: 1})
	}
}

// benchRowMatrix builds the flat row-vector matrix the Select path feeds to
// k-means: one mean-pooled tuple-vector per row.
func benchRowMatrix(b *testing.B, n int) f32.Matrix {
	b.Helper()
	bn := benchBinned(b, n)
	sents := corpus.Build(bn, corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 1})
	model := word2vec.Train(sents, word2vec.Options{Dim: 24, Epochs: 2, Seed: 1})
	pts := f32.New(bn.NumRows(), model.Dim())
	for r := 0; r < bn.NumRows(); r++ {
		v := pts.Row(r)
		for c := 0; c < bn.NumCols(); c++ {
			if cv := model.Vector(bn.Item(c, r)); cv != nil {
				f32.Add(v, cv)
			}
		}
	}
	return pts
}

// BenchmarkKMeansRows measures clustering 3000 row vectors into 10 clusters
// through the flat-matrix path Select uses.
func BenchmarkKMeansRows(b *testing.B) {
	pts := benchRowMatrix(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMeansMatrix(pts, 10, cluster.Options{Seed: 1})
	}
}

// BenchmarkKMeansRowsSliceAPI measures the same clustering from
// slice-of-slices rows, packed by f32.FromRows (the packing cost is the
// delta).
func BenchmarkKMeansRowsSliceAPI(b *testing.B) {
	rows := benchRowMatrix(b, 3000).Rows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMeansMatrix(f32.FromRows(rows), 10, cluster.Options{Seed: 1})
	}
}

// BenchmarkCellCoverage measures one combined-score evaluation — the unit
// of work for RAN, MAB and greedy.
func BenchmarkCellCoverage(b *testing.B) {
	bn := benchBinned(b, 5000)
	rs, err := rules.Mine(bn, rules.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := metrics.NewEvaluator(bn, rs, 0.5)
	st := metrics.SubTable{Rows: []int{1, 100, 500, 900, 1500, 2000, 2500, 3000, 4000, 4900},
		Cols: []int{0, 4, 9, 10, 14, 16, 17, 20, 22, 24}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Combined(st)
	}
}

// BenchmarkGreedyRowSelection measures Algorithm 1's inner greedy loop on a
// single column combination.
func BenchmarkGreedyRowSelection(b *testing.B) {
	bn := benchBinned(b, 1500)
	rs, err := rules.Mine(bn, rules.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := metrics.NewEvaluator(bn, rs, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.Greedy(e, baselines.GreedyOptions{K: 10, L: 10, RandomOrder: true, MaxCombos: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations of the two design choices that depart from the paper.
// ---------------------------------------------------------------------------

// BenchmarkAblationColumnStrategy compares the pattern-group column
// selection (default) against the literal Algorithm 2 centroid step by
// reporting their combined scores as custom metrics.
func BenchmarkAblationColumnStrategy(b *testing.B) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	bn, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := rules.Mine(bn, rules.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := metrics.NewEvaluator(bn, rs, 0.5)
	for i := 0; i < b.N; i++ {
		for _, strat := range []struct {
			name string
			cs   subtab.Options
		}{
			{"patternGroups", func() subtab.Options {
				o := subtab.DefaultOptions()
				o.Columns = subtab.PatternGroups
				return o
			}()},
			{"centroids", func() subtab.Options {
				o := subtab.DefaultOptions()
				o.Columns = subtab.Centroids
				return o
			}()},
		} {
			opt := strat.cs
			opt.Embedding = subtab.EmbeddingOptions{Dim: 24, Epochs: 3, Seed: 1}
			model, err := subtab.Preprocess(ds.T, opt)
			if err != nil {
				b.Fatal(err)
			}
			st, err := model.Select(10, 10, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(e.Combined(st.AsMetricSubTable()), strat.name+"_combined")
		}
	}
}

// BenchmarkAblationCorpus compares tuple-only against tuple+column
// sentence corpora (the paper's corpus includes column-sentences; the
// default here is tuple-only because they dilute the cross-column
// association signal).
func BenchmarkAblationCorpus(b *testing.B) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	bn, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := rules.Mine(bn, rules.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := metrics.NewEvaluator(bn, rs, 0.5)
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			name    string
			columns bool
		}{{"tupleOnly", false}, {"withColumnSentences", true}} {
			opt := subtab.DefaultOptions()
			opt.Corpus = subtab.CorpusOptions{MaxSentences: 100_000, TupleSentences: true, ColumnSentences: cfg.columns, Seed: 1}
			opt.Embedding = subtab.EmbeddingOptions{Dim: 24, Epochs: 3, Seed: 1}
			model, err := subtab.Preprocess(ds.T, opt)
			if err != nil {
				b.Fatal(err)
			}
			st, err := model.Select(10, 10, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(e.Combined(st.AsMetricSubTable()), cfg.name+"_combined")
		}
	}
}
