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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"subtab"
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
	_ = os.Stdout.Sync()
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
