package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"subtab"
	"subtab/internal/memgov"
	"subtab/internal/serve"
)

// governorBudget is large enough that it never binds on any workload: the
// governor accounts and admits on every request (its cost is measured) but
// must never reject or reclaim (both are checked).
const governorBudget = 1 << 30

// stack is the real serving stack of cmd/subtab-server, booted in-process
// behind a loopback listener: disk-backed store, governor, service, HTTP
// handler with request logging off. The pipeline seeds are fixed at 1, like
// the server's default; the benchmark seed only shapes the inputs.
type stack struct {
	dir    string
	opt    subtab.Options // pipeline options every upload is pre-processed with
	gov    *memgov.Governor
	store  *serve.Store
	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
}

// boot serves the store directory dir, which may already hold persisted
// models (a restart).
func boot(dir string, maxModels int) *stack {
	opt := subtab.DefaultOptions()
	opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = 1, 1, 1, 1
	gov := memgov.New(governorBudget)
	store := serve.NewStore(serve.StoreOptions{MaxModels: maxModels, Dir: dir, Governor: gov})
	svc := serve.NewService(store, opt)
	svc.SetAdmission(gov, 0)
	srv := httptest.NewServer(serve.NewHandler(svc, nil))
	client := srv.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = 16 // one kept-alive connection per client
	}
	return &stack{dir: dir, opt: opt, gov: gov, store: store, svc: svc, srv: srv, client: client}
}

func (s *stack) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// call sends one request and reads the response body to the end, so the
// connection is reused; the returned duration covers both.
func (s *stack) call(method, path string, body io.Reader, size int64) (status int, resp []byte, took time.Duration, err error) {
	start := time.Now()
	req, err := http.NewRequest(method, s.srv.URL+path, body)
	if err != nil {
		return 0, nil, 0, err
	}
	if size > 0 {
		req.ContentLength = size
	}
	r, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, time.Since(start), err
}

func (s *stack) post(path string, body []byte) (int, []byte, time.Duration, error) {
	return s.call(http.MethodPost, path, bytes.NewReader(body), int64(len(body)))
}

// upload streams a table's CSV from its file to POST /tables.
func (s *stack) upload(td *tableData, paged, replace bool) error {
	f, err := os.Open(td.CSVPath)
	if err != nil {
		return err
	}
	defer f.Close()
	q := url.Values{"name": {td.Name}}
	if paged {
		q.Set("store", "1")
	}
	if replace {
		q.Set("replace", "1")
	}
	status, body, _, err := s.call(http.MethodPost, "/tables?"+q.Encode(), f, td.CSVBytes)
	if err != nil {
		return fmt.Errorf("upload %s: %w", td.Name, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("upload %s: status %d: %s", td.Name, status, bytes.TrimSpace(body))
	}
	var info struct {
		Rows, Cols int
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("upload %s: %w", td.Name, err)
	}
	if info.Rows != td.Rows || info.Cols != td.Cols {
		return fmt.Errorf("upload %s: served %d×%d, generated %d×%d", td.Name, info.Rows, info.Cols, td.Rows, td.Cols)
	}
	return nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
