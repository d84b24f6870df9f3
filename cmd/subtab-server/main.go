// Command subtab-server serves interactive sub-table selection over HTTP.
// Tables are uploaded as CSV, pre-processed once (bin → corpus → Word2Vec),
// written to a model file in the cache directory, served mapped from it
// with an LRU bound on the models held in memory, and then served to any
// number of concurrent sessions: select, query, rule-mining and
// highlighting all reuse the cached model, which is what turns the paper's
// one-off pre-processing cost into interactive request latencies.
//
// Usage:
//
//	subtab-server -addr :8080 -cache-dir /var/lib/subtab -max-models 8
//
// Pre-load tables at startup with name=path.csv arguments:
//
//	subtab-server flights=testdata/flights.csv
//
// Out-of-core serving: every unsharded table is its one cached model file,
// and its bin codes and cells are served mmap'd from it. Without
// -cache-dir the server makes a private cache directory under $TMPDIR and
// removes it when it shuts down gracefully; a killed server leaves it
// behind. The store=1 upload parameter of earlier versions is accepted and
// changes nothing.
//
// Memory governance: -memory-budget caps the process's governed resident
// bytes — cached models, per-model vector and sample caches, coordinator
// sample caches, and in-flight select working sets — under one ledger
// (internal/memgov). Consumers growing past the budget shed cold models
// and caches; selects whose estimated working set cannot be admitted are
// refused with 429 + Retry-After, as are selects past -table-concurrency.
// See README.md "Memory model" for the full consumer table.
//
// Sharded serving: upload with shards=N to split a table's codes across N
// shard stores, then spread the shard files (plus a copy of the model
// file) across instances. Instances holding only some shards run with
// -shard-role worker; the instance clients talk to runs with -shard-role
// coordinator -shard-peers http://w1:8080,http://w2:8080 and serves
// scaled selections by scattering per-shard sample requests to its peers
// and merging — byte-identical to one instance holding every shard.
//
// The route list is serve.NewHandler's doc comment; README.md has request
// and response examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"subtab"
	"subtab/internal/memgov"
	"subtab/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("subtab-server: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache-dir", "", "directory of the pre-processed model files, served mapped from it. Empty = a private directory made under $TMPDIR and removed on graceful shutdown. WARNING: on a tmpfs $TMPDIR the mapped files stay in RAM, outside -memory-budget; a killed (not drained) server leaves the private directory behind")
		maxModels = flag.Int("max-models", serve.DefaultMaxModels, "models kept in memory (LRU; evicted models reload from their files)")
		seed      = flag.Int64("seed", 1, "default pipeline seed for uploaded tables")
		timeout   = flag.Duration("shutdown-timeout", 15*time.Second, "graceful shutdown grace period")
		withPprof = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ (profile serving hot spots in place)")
		memBudget = flag.String("memory-budget", "", "process-wide budget for every governed resident byte consumer — cached models, per-model vector/sample caches, coordinator sample caches, in-flight select working sets — e.g. 512MiB (plain bytes, or KiB/MiB/GiB). Growth past it evicts cold models and caches; selects that cannot be admitted get 429 + Retry-After. Empty = ungoverned. NOTE: before the governor this flag named a per-request slab spill budget; spilling has since been removed")
		tableConc = flag.Int("table-concurrency", 0, "max selects running concurrently against one table; excess requests are refused with 429. 0 = unlimited")
		shardRole = flag.String("shard-role", "", `role in a sharded deployment: "worker" (holds some shards of sharded tables, answers shard-exec requests) or "coordinator" (scatters scaled selects to -shard-peers). Empty = standalone: sharded tables must be fully local`)
		peerList  = flag.String("shard-peers", "", "comma-separated base URLs of the instances holding this server's missing shards (coordinator role only)")
	)
	flag.Parse()
	memoryBudget, err := parseByteSize(*memBudget)
	if err != nil {
		log.Fatalf("-memory-budget: %v", err)
	}
	shardOpt, err := parseShardFlags(*shardRole, *peerList, *cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	lim := limitsConfig{memoryBudget: memoryBudget, tableConcurrency: *tableConc}
	if err := run(*addr, *cacheDir, *maxModels, *seed, lim, *timeout, *withPprof, shardOpt, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

// limitsConfig carries the parsed resource-limit flags into run.
type limitsConfig struct {
	memoryBudget     int64 // process-wide governed budget (0 = ungoverned)
	tableConcurrency int   // concurrent selects per table (0 = unlimited)
}

// shardConfig is the validated form of the -shard-role/-shard-peers pair.
type shardConfig struct {
	role  string
	peers []string
}

func parseShardFlags(role, peerList, cacheDir string) (shardConfig, error) {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	switch role {
	case "":
		if len(peers) > 0 {
			return shardConfig{}, fmt.Errorf("-shard-peers requires -shard-role coordinator")
		}
	case "worker":
		if len(peers) > 0 {
			return shardConfig{}, fmt.Errorf("-shard-peers is a coordinator flag; workers only answer shard-exec requests")
		}
	case "coordinator":
		if len(peers) == 0 {
			return shardConfig{}, fmt.Errorf("-shard-role coordinator requires -shard-peers")
		}
	default:
		return shardConfig{}, fmt.Errorf("-shard-role: want worker or coordinator, got %q", role)
	}
	if role != "" && cacheDir == "" {
		return shardConfig{}, fmt.Errorf("-shard-role %s requires -cache-dir (shard files live in the model cache)", role)
	}
	return shardConfig{role: role, peers: peers}, nil
}

// parseByteSize parses a byte count with an optional KiB/MiB/GiB suffix.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			mult, s = u.mult, strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("want a non-negative byte count with optional KiB/MiB/GiB suffix, got %q", s)
	}
	return n * mult, nil
}

// preloadTables adds each name=path.csv table to svc so the server starts
// warm. A name whose model file loads is served from there, so Preprocess
// runs only for new data; a model file that does not load (damaged, or in
// a retired format) is written over, as a non-replacing upload would.
func preloadTables(svc *serve.Service, preload []string) error {
	for _, arg := range preload {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			return fmt.Errorf("bad preload argument %q, want name=path.csv", arg)
		}
		start := time.Now()
		if _, err := svc.Model(name); err == nil {
			log.Printf("preload %s: already cached", name)
			continue
		}
		t, err := subtab.ReadCSVFile(path)
		if err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		m, err := svc.AddTable(name, t, nil, serve.Unsharded, false)
		if err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		log.Printf("preload %s: %d rows x %d cols in %s",
			name, m.T.NumRows(), m.T.NumCols(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// newService builds the store and service the server runs, over cacheDir,
// or with cacheDir empty over a private directory it makes under $TMPDIR.
// It returns the directory; a private one is the caller's to remove.
func newService(cacheDir string, maxModels int, seed int64, lim limitsConfig, shardOpt shardConfig) (*serve.Service, string, error) {
	opt := subtab.DefaultOptions()
	opt.Bins.Seed = seed
	opt.Corpus.Seed = seed
	opt.Embedding.Seed = seed
	opt.ClusterSeed = seed

	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "subtab-server-")
		if err != nil {
			return nil, "", fmt.Errorf("making a private cache directory: %w", err)
		}
		cacheDir = dir
	}
	var gov *memgov.Governor
	if lim.memoryBudget > 0 {
		gov = memgov.New(lim.memoryBudget)
		log.Printf("memory governor: budget %d bytes", lim.memoryBudget)
	}
	sopt := serve.StoreOptions{MaxModels: maxModels, Dir: cacheDir, Governor: gov}
	if shardOpt.role != "" {
		// Workers and coordinators both load sharded models whose files are
		// spread across instances; only the coordinator can sample the
		// missing shards from peers.
		sopt.AllowMissingShards = true
	}
	// The PrepareModel hook closes over the store it is installed into: it
	// only runs on disk loads, which cannot happen before NewStore returns.
	var store *serve.Store
	if shardOpt.role == "coordinator" {
		peers := shardOpt.peers
		sopt.PrepareModel = func(name string, m *subtab.Model) error {
			src := m.ShardSource()
			if src == nil || src.Complete() {
				return nil
			}
			popt := serve.ShardPeersOptions{
				Peers: peers,
				// Key the sampler's cross-request caches to the table's
				// replacement generation, so replacing a sharded table
				// invalidates samples gathered against its predecessor.
				Generation: func() uint64 { return store.Generation(name) },
				Governor:   gov,
			}
			sampler, err := serve.NewShardSampler(name, m, popt)
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			log.Printf("table %s: coordinating %d shards across %d peers", name, src.NumShards(), len(peers))
			return nil
		}
	}
	store = serve.NewStore(sopt)
	svc := serve.NewService(store, opt)
	if gov != nil || lim.tableConcurrency > 0 {
		svc.SetAdmission(gov, lim.tableConcurrency)
	}
	if shardOpt.role != "" {
		log.Printf("shard role: %s (peers: %s)", shardOpt.role, strings.Join(shardOpt.peers, ", "))
	}
	return svc, cacheDir, nil
}

func run(addr, cacheDir string, maxModels int, seed int64, lim limitsConfig, timeout time.Duration, withPprof bool, shardOpt shardConfig, preload []string) error {
	svc, dir, err := newService(cacheDir, maxModels, seed, lim, shardOpt)
	if err != nil {
		return err
	}
	if cacheDir == "" {
		defer os.RemoveAll(dir)
	}
	if err := preloadTables(svc, preload); err != nil {
		return err
	}

	var handler http.Handler = serve.NewHandler(svc, log.Default())
	if withPprof {
		// The profiling endpoints share the API listener so a warm serving
		// process can be profiled exactly as deployed; they are off by
		// default because they expose stacks and heap contents.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("pprof endpoints enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Catch signals before the listener answers, so every drain removes a
	// private cache directory on the way out.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (cache-dir=%q, max-models=%d)", addr, dir, maxModels)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("received %s, draining connections", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Print("bye")
	return nil
}
