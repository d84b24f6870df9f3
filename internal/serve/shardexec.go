package serve

// Shard-exec: the HTTP lift of the scatter/gather selection protocol.
//
// A table's code store may be split into shards owned by different
// subtab-server instances. The instance a client talks to (the
// coordinator) loads the model with AllowMissingShards, so it holds the
// table, binnings and embedding but only some (possibly zero) shard
// files. Scaled selections then scatter one shard.SampleRequest per
// remote shard to peers (POST /shards/{table}/{idx}/sample), scan local
// shards in-process, and merge the per-shard summaries associatively —
// the same merge the single-process fan-out runs, so the selection is
// bit-identical to a single store holding every row. Each response also
// carries the candidate rows' codes; the coordinator overlays them as a
// sparse code source so the rest of the selection never touches a
// missing shard.
//
// Tables whose raw columns are sharded too (paged column stores)
// extend the lift to view rendering: the coordinator resolves the chosen
// rows' cells from the owning workers (POST /shards/{table}/{idx}/cells),
// one round trip per remote shard covering every view column.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/f32"
	"subtab/internal/memgov"
	"subtab/internal/query"
	"subtab/internal/shard"
)

// maxShardRespBytes bounds a peer's sample response (a summary is at most
// nItems strata plus budget candidates plus their codes; 64 MiB is far
// beyond any sane configuration and still small enough to read eagerly).
const maxShardRespBytes = 1 << 26

// SampleShard executes one shard's half of a scatter/gather sample: the
// worker side of POST /shards/{name}/{idx}/sample. The request's checksum
// must match the local shard file's identity, so a coordinator and a
// worker whose stores diverged fail loudly instead of merging skewed
// minima. The response carries the shard's summary plus the codes of
// every candidate row, for all table columns.
func (s *Service) SampleShard(name string, idx int, req *shard.SampleRequest) (*shard.SampleResponse, error) {
	m, err := s.store.Get(name)
	if err != nil {
		return nil, err
	}
	src := m.ShardSource()
	if src == nil {
		return nil, fmt.Errorf("%w: table %q is not sharded", ErrBadRequest, name)
	}
	if idx < 0 || idx >= src.NumShards() {
		return nil, fmt.Errorf("%w: shard %d out of range [0, %d)", ErrBadRequest, idx, src.NumShards())
	}
	if !src.ShardAvailable(idx) {
		return nil, fmt.Errorf("%w: shard %d of %q is not held by this instance", ErrBadRequest, idx, name)
	}
	if got, want := req.Checksum, src.Desc(idx).Checksum; got != want {
		return nil, fmt.Errorf("%w: shard %d of %q: request expects checksum %08x, this store has %08x",
			ErrBadRequest, idx, name, got, want)
	}
	resp, err := sampleLocalShard(m, idx, req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return resp, nil
}

// sampleLocalShard scans one locally held shard and assembles the protocol
// response — what a worker answers a peer with and what a coordinator
// merges for the shards it holds itself.
func sampleLocalShard(m *core.Model, idx int, req *shard.SampleRequest) (*shard.SampleResponse, error) {
	sum, matched, err := m.SampleShard(idx, req.Cols, req.Budget, req.Seed, req.Preds)
	if err != nil {
		return nil, err
	}
	rows := sum.CandidateRows()
	return &shard.SampleResponse{
		Summary: sum,
		Rows:    rows,
		Codes:   gatherShardCodes(m.ShardSource(), m.T.NumCols(), rows),
		Matched: matched,
	}, nil
}

// maxShardCellsPerRequest bounds one cells request's row×column product: a
// view gather touches k rows × l columns (hundreds of cells), so a request
// asking for millions is a bug or abuse, not a bigger view.
const maxShardCellsPerRequest = 1 << 20

// ShardCells executes the worker half of a remote view gather: the handler
// behind POST /shards/{name}/{idx}/cells. The request carries shard-local
// row indices and source column indices; the response carries the rendered
// cells, exactly the bytes the coordinator's view assembly would read off a
// local column store. Like SampleShard, the request's checksum must match
// the local column shard's identity.
func (s *Service) ShardCells(name string, idx int, req *shard.CellsRequest) (*shard.CellsResponse, error) {
	m, err := s.store.Get(name)
	if err != nil {
		return nil, err
	}
	sc := m.ShardCells()
	if sc == nil {
		return nil, fmt.Errorf("%w: table %q has no sharded column store", ErrBadRequest, name)
	}
	if idx < 0 || idx >= sc.NumShards() {
		return nil, fmt.Errorf("%w: shard %d out of range [0, %d)", ErrBadRequest, idx, sc.NumShards())
	}
	if !sc.ShardAvailable(idx) {
		return nil, fmt.Errorf("%w: column shard %d of %q is not held by this instance", ErrBadRequest, idx, name)
	}
	if got, want := req.Checksum, sc.Desc(idx).Checksum; got != want {
		return nil, fmt.Errorf("%w: column shard %d of %q: request expects checksum %08x, this store has %08x",
			ErrBadRequest, idx, name, got, want)
	}
	if n := len(req.Cols) * len(req.Rows); n > maxShardCellsPerRequest {
		return nil, fmt.Errorf("%w: request asks for %d cells, limit is %d", ErrBadRequest, n, maxShardCellsPerRequest)
	}
	shardRows := sc.Desc(idx).Rows
	rows := make([]int, len(req.Rows))
	for i, r := range req.Rows {
		if r < 0 || r >= int64(shardRows) {
			return nil, fmt.Errorf("%w: row %d outside column shard %d's range [0, %d)", ErrBadRequest, r, idx, shardRows)
		}
		rows[i] = int(r)
	}
	cells, err := m.GatherShardCells(idx, req.Cols, rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &shard.CellsResponse{Cells: cells}, nil
}

// gatherShardCodes reads the codes of the given global rows for every
// table column (col-major, parallel to rows).
func gatherShardCodes(src *shard.Source, cols int, rows []int64) [][]uint16 {
	ids := make([]int, len(rows))
	for k, r := range rows {
		ids[k] = int(r)
	}
	codes := make([][]uint16, cols)
	for c := range codes {
		codes[c] = make([]uint16, len(rows))
		src.GatherCodes(c, ids, codes[c])
	}
	return codes
}

// ShardPeersOptions configures a coordinator's scatter behaviour.
type ShardPeersOptions struct {
	// Peers are the base URLs of the instances holding this table's
	// shards (e.g. "http://10.0.0.7:8080"). A request for shard i is
	// first sent to Peers[i%len(Peers)] and rotates through the rest on
	// retry, so a uniform shard-to-instance assignment needs no explicit
	// placement map.
	Peers []string
	// Timeout bounds each attempt against one peer. Default 30s.
	Timeout time.Duration
	// Retries is the number of additional attempts (against rotated
	// peers) after a failed one. Default 1; negative disables retries.
	Retries int
	// Client overrides the HTTP client (tests). Default http.DefaultClient.
	Client *http.Client
	// Generation, when non-nil, tags cross-request cache entries with its
	// value at fill time and discards entries whose tag no longer matches —
	// wire it to Store.Generation(name) so replacing a sharded table
	// invalidates samples gathered against the predecessor instead of
	// serving its rows forever. Nil keeps the pre-generation behaviour
	// (cache entries live as long as the sampler).
	Generation func() uint64
	// Governor, when non-nil, byte-accounts the sampler's cross-request
	// sample cache under memgov.ClassCoordCache. The cache stays bounded by
	// entry count regardless; the governor sees its true byte weight (the
	// candidate overlays dominate a coordinator's heap) and reclaims it when
	// the serving store evicts the model (via core.CacheReleaser).
	Governor *memgov.Governor
}

// NewShardSampler builds the coordinator side of the protocol: a
// core.ShardSampler that samples m's local shards in-process, fetches the
// remote ones from peers, and merges — install it with
// m.SetShardSampler. The model must be shard-backed; peers are required
// only when some shards are not local. When the model's raw columns are
// sharded too, the same peer set is installed as the column source's cell
// fetcher, so view assembly resolves remote shards' cells over
// POST /shards/{name}/{idx}/cells with one round trip per shard.
func NewShardSampler(name string, m *core.Model, opt ShardPeersOptions) (core.ShardSampler, error) {
	src := m.ShardSource()
	if src == nil {
		return nil, fmt.Errorf("serve: table %q is not shard-backed", name)
	}
	if !src.Complete() && len(opt.Peers) == 0 {
		return nil, fmt.Errorf("serve: table %q has shards held by peers but no peers were given", name)
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	} else if opt.Retries == 0 {
		opt.Retries = 1
	}
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	s := &shardSampler{
		name:  name,
		m:     m,
		src:   src,
		opt:   opt,
		cache: memgov.NewCache[string](opt.Governor, memgov.ClassCoordCache, func(_ string, r sampleResult) int64 { return r.bytes }),
	}
	if sc := m.ShardCells(); sc != nil && !sc.Complete() {
		if len(opt.Peers) == 0 {
			return nil, fmt.Errorf("serve: table %q has remote column shards but no peers were given", name)
		}
		sc.SetFetcher(s.fetchCells)
	}
	return s, nil
}

type shardSampler struct {
	name string
	m    *core.Model
	src  *shard.Source
	opt  ShardPeersOptions

	// cache holds scatter results per (generation, budget, cols, preds):
	// scatter round trips are the expensive half of a scaled select. gen is
	// the ShardPeersOptions.Generation it was last used at; a change means
	// the table was replaced and every entry is stale.
	cache *memgov.Cache[string, sampleResult]
	gen   atomic.Uint64
}

type sampleResult struct {
	rows    []int
	overlay *shard.SparseSource
	matched int   // total rows matching the request's predicates, across shards
	bytes   int64 // estimated residency: rows + overlay rows + overlay codes
}

// Sample runs one full scatter/gather round: scan or fetch every non-empty
// shard, merge the summaries, finish the pick order, and overlay the
// gathered codes. Each request carries preds, each worker evaluates them
// shard-locally inside its scan and reports how many of its rows matched,
// and the merged sample is byte-identical to what the single-store
// stratified reservoir over the matching rows would return (empty preds:
// the whole table). matched is the total matching row count across shards —
// the figure the scaled-path threshold gates on, since the coordinator never
// materializes the matching row set.
func (s *shardSampler) Sample(cols []int, budget int, preds []query.Predicate) ([]int, binning.CodeSource, int, error) {
	if budget <= 0 {
		return nil, nil, 0, fmt.Errorf("serve: sample budget must be positive, got %d", budget)
	}
	// The predicate key spells every field unambiguously (%q quotes the
	// strings), so two conjunctions differing only in, say, Num vs Str
	// cannot collide.
	var pk strings.Builder
	for _, p := range preds {
		fmt.Fprintf(&pk, "%q|%d|%x|%q;", p.Col, p.Op, p.Num, p.Str)
	}
	// The generation is read before the scatter and spelled into the key:
	// if the table is replaced while this round is in flight, its result is
	// stored under the old tag, which no later lookup asks for.
	var gen uint64
	if s.opt.Generation != nil {
		gen = s.opt.Generation()
	}
	if s.gen.Swap(gen) != gen {
		s.cache.Clear()
	}
	key := fmt.Sprintf("%d|%d|%v|%s", gen, budget, cols, pk.String())
	r, err := s.cache.Fill(key, func() (sampleResult, error) { return s.scatter(cols, budget, preds) })
	if err != nil {
		return nil, nil, 0, err
	}
	return append([]int(nil), r.rows...), r.overlay, r.matched, nil
}

// scatter runs the uncached scatter/gather round behind Sample.
func (s *shardSampler) scatter(cols []int, budget int, preds []query.Predicate) (sampleResult, error) {
	seed := s.m.SampleSeed()
	nCols := s.m.T.NumCols()
	resps := make([]*shard.SampleResponse, s.src.NumShards())
	errs := make([]error, s.src.NumShards())
	var wg sync.WaitGroup
	var panics f32.Panics
	for i := 0; i < s.src.NumShards(); i++ {
		if s.src.ShardRows(i) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer panics.Recover(&i)
			req := &shard.SampleRequest{Checksum: s.src.Desc(i).Checksum, Seed: seed, Budget: budget, Cols: cols, Preds: preds}
			if s.src.ShardAvailable(i) {
				resps[i], errs[i] = sampleLocalShard(s.m, i, req)
				return
			}
			resp, err := s.fetch(i, req)
			if err == nil {
				err = validateShardResponse(resp, s.src, i, nCols, s.m.B.NumItems())
			}
			resps[i], errs[i] = resp, err
		}(i)
	}
	wg.Wait()
	panics.Raise()
	for _, err := range errs {
		if err != nil {
			return sampleResult{}, err
		}
	}

	sums := make([]shard.Summary, len(resps))
	total, matched := 0, 0
	for i, r := range resps {
		if r == nil {
			continue
		}
		sums[i] = r.Summary
		total += len(r.Rows)
		matched += r.Matched
	}
	strata, cands := shard.MergeSummaries(sums, s.m.B.NumItems())
	rows := shard.FinishSample(strata, cands, budget)

	// The overlay holds every candidate any shard surfaced (a superset of
	// the final sample); shard ranges are disjoint, so rows cannot repeat.
	allRows := make([]int64, 0, total)
	allCodes := make([][]uint16, nCols)
	for c := range allCodes {
		allCodes[c] = make([]uint16, 0, total)
	}
	for _, r := range resps {
		if r == nil {
			continue
		}
		allRows = append(allRows, r.Rows...)
		for c := range allCodes {
			allCodes[c] = append(allCodes[c], r.Codes[c]...)
		}
	}
	overlay, err := shard.NewSparseSource(s.m.T.NumRows(), nCols, allRows, allCodes)
	if err != nil {
		return sampleResult{}, fmt.Errorf("serve: assembling sampled overlay for %q: %w", s.name, err)
	}

	// Entry weight: the cached pick order plus the overlay's row ids and its
	// per-column uint16 codes (slice headers ignored; the payloads dominate).
	rb := int64(len(rows))*8 + int64(len(allRows))*(8+2*int64(nCols))
	return sampleResult{rows: rows, overlay: overlay, matched: matched, bytes: rb}, nil
}

// ReleaseCache clears the coordinator's cross-request sample cache — the
// core.CacheReleaser hook core.Model.ReleaseSparingOverviews (and so
// ReleaseVectorCache) forwards to, so a store eviction reclaims the
// coordinator bytes keyed to the model.
func (s *shardSampler) ReleaseCache() { s.cache.Clear() }

// fetch posts the sample request for shard idx, rotating through peers
// across attempts.
func (s *shardSampler) fetch(idx int, req *shard.SampleRequest) (*shard.SampleResponse, error) {
	body := req.Marshal()
	var lastErr error
	for attempt := 0; attempt <= s.opt.Retries; attempt++ {
		peer := s.opt.Peers[(idx+attempt)%len(s.opt.Peers)]
		raw, err := s.post(peer, idx, "sample", body)
		if err == nil {
			resp, err := shard.UnmarshalSampleResponse(raw)
			if err == nil {
				return resp, nil
			}
			lastErr = fmt.Errorf("peer %s: %w", peer, err)
			continue
		}
		lastErr = fmt.Errorf("peer %s: %w", peer, err)
	}
	return nil, fmt.Errorf("serve: sampling shard %d of %q: %w", idx, s.name, lastErr)
}

// fetchCells resolves one remote shard's rendered view cells — the
// shard.CellFetcher a coordinator installs on its sharded column source.
// rows are shard-local; the same peer rotation and retry budget as sample
// fetches apply.
func (s *shardSampler) fetchCells(idx int, cols []int, rows []int) ([][]string, error) {
	sc := s.m.ShardCells()
	if sc == nil {
		return nil, fmt.Errorf("serve: table %q has no sharded column source", s.name)
	}
	rows64 := make([]int64, len(rows))
	for i, r := range rows {
		rows64[i] = int64(r)
	}
	req := &shard.CellsRequest{Checksum: sc.Desc(idx).Checksum, Cols: cols, Rows: rows64}
	body := req.Marshal()
	var lastErr error
	for attempt := 0; attempt <= s.opt.Retries; attempt++ {
		peer := s.opt.Peers[(idx+attempt)%len(s.opt.Peers)]
		raw, err := s.post(peer, idx, "cells", body)
		if err == nil {
			resp, err := shard.UnmarshalCellsResponse(raw)
			if err == nil {
				return resp.Cells, nil
			}
			lastErr = fmt.Errorf("peer %s: %w", peer, err)
			continue
		}
		lastErr = fmt.Errorf("peer %s: %w", peer, err)
	}
	return nil, fmt.Errorf("serve: fetching cells for shard %d of %q: %w", idx, s.name, lastErr)
}

// post sends one checksummed frame to a peer's shard-exec endpoint
// ("sample" or "cells") and returns the raw response frame.
func (s *shardSampler) post(peer string, idx int, endpoint string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.Timeout)
	defer cancel()
	u := strings.TrimRight(peer, "/") + "/shards/" + url.PathEscape(s.name) + "/" + strconv.Itoa(idx) + "/" + endpoint
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hresp, err := s.opt.Client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", hresp.StatusCode, strings.TrimSpace(string(msg)))
	}
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, maxShardRespBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxShardRespBytes {
		return nil, fmt.Errorf("response exceeds %d bytes", maxShardRespBytes)
	}
	return raw, nil
}

// validateShardResponse rejects a peer response that cannot merge safely:
// rows outside the shard's range, rows disagreeing with its own summary,
// or geometry that does not match this coordinator's model.
func validateShardResponse(resp *shard.SampleResponse, src *shard.Source, idx, nCols, nItems int) error {
	if len(resp.Summary.Strata) != nItems {
		return fmt.Errorf("serve: shard %d response has %d strata, model has %d items", idx, len(resp.Summary.Strata), nItems)
	}
	if len(resp.Codes) != nCols {
		return fmt.Errorf("serve: shard %d response has %d code columns, table has %d", idx, len(resp.Codes), nCols)
	}
	want := resp.Summary.CandidateRows()
	if len(want) != len(resp.Rows) {
		return fmt.Errorf("serve: shard %d response carries %d rows for %d candidates", idx, len(resp.Rows), len(want))
	}
	if resp.Matched < len(resp.Rows) || resp.Matched > src.ShardRows(idx) {
		return fmt.Errorf("serve: shard %d response claims %d matching rows but carries %d candidates of %d shard rows",
			idx, resp.Matched, len(resp.Rows), src.ShardRows(idx))
	}
	lo := int64(src.ShardStart(idx))
	hi := lo + int64(src.ShardRows(idx))
	for k, r := range resp.Rows {
		if r != want[k] {
			return fmt.Errorf("serve: shard %d response rows disagree with its summary", idx)
		}
		if r < lo || r >= hi {
			return fmt.Errorf("serve: shard %d response row %d outside shard range [%d, %d)", idx, r, lo, hi)
		}
	}
	return nil
}
