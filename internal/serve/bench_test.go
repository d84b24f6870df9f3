package serve

import (
	"os"
	"testing"

	"subtab/internal/core"
	"subtab/internal/modelio"
	"subtab/internal/rules"
)

func rulesOptionsForTest() rules.Options { return rules.Options{} }

func truncateFile(path string, n int64) error {
	return os.Truncate(path, n)
}

// The benchmarks quantify what the serving layer buys: a warm-cache Select
// versus paying cold Preprocess per request, with disk restore in between.
//
//	BenchmarkColdPreprocess  — no serving layer: every request re-trains
//	BenchmarkDiskLoadSelect  — restart path: load persisted model, select
//	BenchmarkWarmSelect      — steady state: cached model, select only

func benchTable() (*core.Model, error) {
	return core.Preprocess(testTable("bench", 2000, 17), testOptions())
}

func BenchmarkColdPreprocess(b *testing.B) {
	t := testTable("bench", 2000, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Preprocess(t, testOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Select(10, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskLoadSelect(b *testing.B) {
	m, err := benchTable()
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.subtab"
	if err := modelio.SaveFile(path, m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := modelio.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loaded.Select(10, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmSelect(b *testing.B) {
	svc := NewService(NewStore(StoreOptions{Dir: b.TempDir()}), testOptions())
	if _, err := svc.AddTable("bench", testTable("bench", 2000, 17), nil, Unsharded, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Select("bench", core.ExploreSpec{K: 10, L: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmSelectParallel(b *testing.B) {
	svc := NewService(NewStore(StoreOptions{Dir: b.TempDir()}), testOptions())
	if _, err := svc.AddTable("bench", testTable("bench", 2000, 17), nil, Unsharded, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Select("bench", core.ExploreSpec{K: 10, L: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
