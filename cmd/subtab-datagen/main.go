// Command subtab-datagen writes one of the paper's synthetic evaluation
// datasets as CSV (schema-faithful stand-ins for the Kaggle/honeynet
// datasets, with planted association rules of paper-typical support and
// confidence).
//
// Usage:
//
//	subtab-datagen -dataset FL -rows 60000 -seed 1 -out flights.csv
//
// The -rows knob scales any dataset to stress size; it accepts k/M suffixes
// so emitting the large-selection workloads is one flag:
//
//	subtab-datagen -dataset FL -rows 1M -out flights-1m.csv
//
// With -shards N the generated table is additionally binned and its codes
// exported as N shard code-store files plus a shard map, ready to be
// spread across subtab-server instances:
//
//	subtab-datagen -dataset FL -rows 1M -shards 4 -out flights-1m.csv
//
// writes flights-1m.csv, flights-1m.codes.000 … .003 and
// flights-1m.shards.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"subtab"
	"subtab/internal/binning"
	"subtab/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subtab-datagen: ")

	var (
		dataset = flag.String("dataset", "FL", "dataset: "+strings.Join(subtab.DatasetNames(), ", "))
		rows    = flag.String("rows", "0", "row count, with optional k/M suffix, e.g. 100k or 1M (0 = dataset default)")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output CSV path (default <dataset>.csv)")
		info    = flag.Bool("info", false, "print the dataset's planted patterns and exit")
		shards  = flag.Int("shards", 0, "also bin the table and export its codes as N shard code-store files plus a shard map (0 = CSV only)")
	)
	flag.Parse()

	n, err := parseRows(*rows)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := subtab.GenerateDataset(*dataset, n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *info {
		fmt.Printf("%s: %d rows x %d columns; targets %v\n",
			ds.Name, ds.T.NumRows(), ds.T.NumCols(), ds.Targets)
		for _, pr := range ds.Planted {
			fmt.Printf("  - %s (columns %v)\n", pr.Description, pr.Cols)
		}
		return
	}
	path := *out
	if path == "" {
		path = strings.ToLower(*dataset) + ".csv"
	}
	if err := ds.T.WriteCSVFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d rows x %d columns\n", path, ds.T.NumRows(), ds.T.NumCols())
	if *shards > 0 {
		if err := exportShards(ds, path, *shards, *seed); err != nil {
			log.Fatal(err)
		}
	}
	_ = os.Stdout.Sync()
}

// exportShards bins the generated table (same default binning the server
// applies at upload, seeded like the CSV) and splits its codes evenly
// into n shard code-store files beside the CSV, plus a shard map naming
// them — the on-disk layout internal/shard.Open consumes.
func exportShards(ds *subtab.Dataset, csvPath string, n int, seed int64) error {
	bopt := subtab.DefaultOptions().Bins
	bopt.Seed = seed
	b, err := binning.Bin(ds.T, bopt)
	if err != nil {
		return fmt.Errorf("binning for shard export: %w", err)
	}
	base := strings.TrimSuffix(csvPath, ".csv")
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.codes.%03d", base, i)
	}
	rows := ds.T.NumRows()
	cuts := make([]int, n+1)
	for i := range cuts {
		cuts[i] = i * rows / n
	}
	sink, err := shard.NewSplitSink(paths, cuts, b.NumBins(), 0)
	if err != nil {
		return err
	}
	if err := b.ExportCodes(sink, 0); err != nil {
		sink.Abort()
		return fmt.Errorf("exporting shard stores: %w", err)
	}
	sm, err := sink.Close()
	if err != nil {
		return err
	}
	mapPath := base + ".shards"
	if err := shard.WriteFile(mapPath, sm); err != nil {
		return err
	}
	for i, d := range sm.Shards {
		fmt.Printf("wrote %s: shard %d, %d rows, checksum %08x\n", paths[i], i, d.Rows, d.Checksum)
	}
	fmt.Printf("wrote %s: shard map, %d shards x %d columns\n", mapPath, n, ds.T.NumCols())
	return nil
}

// parseRows parses the -rows value: a plain integer, or one with a k/M
// scale suffix (case-insensitive), e.g. 100k = 100_000, 1M = 1_000_000.
func parseRows(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("-rows: want an integer with optional k/M suffix, got %q", s)
	}
	return n * mult, nil
}
