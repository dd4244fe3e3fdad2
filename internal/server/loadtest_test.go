package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/api"
)

// TestLoad64Clients is the acceptance load test: 64 concurrent clients
// mixing /search, /searchbatch, /insert, /delete, and /stats traffic
// against one server. Every search response must be well-formed and in
// sorted distance order; run under -race in CI this also proves the
// whole serving path race-clean under contention.
func TestLoad64Clients(t *testing.T) {
	const (
		clients           = 64
		requestsPerClient = 12
	)
	ts, idx, ds := newTestServer(t, Config{QueryTimeout: 30 * time.Second})
	queries := ds.PerturbedQueries(clients, 0.02, 9)
	dim := idx.Dim()

	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients

	var (
		wg       sync.WaitGroup
		searches atomic.Int64
		batches  atomic.Int64
		writes   atomic.Int64
	)
	errCh := make(chan error, clients)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}
	doPost := func(path string, body any, out any) (int, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == 200 {
			return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	checkSorted := func(res []api.Result) bool {
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}

	// Mid-storm scraper: repeatedly GET /metrics while the clients hammer
	// the server, and fail the test if any scrape is malformed exposition
	// — histogram buckets must stay cumulative and +Inf-closed even while
	// their counters are being bumped concurrently.
	scrapeDone := make(chan struct{})
	var scrapes atomic.Int64
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-scrapeDone:
				return
			default:
			}
			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				fail("metrics scrape: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fail("metrics scrape read: %v", err)
				return
			}
			if resp.StatusCode != 200 {
				fail("metrics scrape status %d", resp.StatusCode)
				return
			}
			parsePromText(t, string(body))
			scrapes.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queries[c]
			for r := 0; r < requestsPerClient; r++ {
				switch {
				case c%8 == 7 && r%6 == 5:
					// Writer traffic: insert then delete the new id.
					vec := make([]float32, dim)
					for d := range vec {
						vec[d] = float32(c%10) / 10
					}
					var ins map[string]uint64
					code, err := doPost("/insert", insertRequest{Vector: vec}, &ins)
					if err != nil || code != 200 {
						fail("client %d insert: code %d err %v", c, code, err)
						return
					}
					if code, err = doPost("/delete", deleteRequest{ID: ins["id"]}, nil); err != nil || code != 200 {
						fail("client %d delete: code %d err %v", c, code, err)
						return
					}
					writes.Add(1)
				case r%3 == 2:
					var out api.SearchBatchResponse
					batch := [][]float32{q, queries[(c+1)%clients], queries[(c+2)%clients]}
					code, err := doPost("/searchbatch", api.SearchBatchRequest{Queries: batch, K: 5}, &out)
					if err != nil || code != 200 {
						fail("client %d batch: code %d err %v", c, code, err)
						return
					}
					if len(out.Results) != len(batch) {
						fail("client %d batch: %d result sets, want %d", c, len(out.Results), len(batch))
						return
					}
					for _, res := range out.Results {
						if len(res) == 0 || !checkSorted(res) {
							fail("client %d batch: empty or unsorted results", c)
							return
						}
					}
					batches.Add(1)
				default:
					var out api.SearchResponse
					code, err := doPost("/search", api.SearchRequest{Query: q, K: 10}, &out)
					if err != nil || code != 200 {
						fail("client %d search: code %d err %v", c, code, err)
						return
					}
					if len(out.Results) == 0 || !checkSorted(out.Results) {
						fail("client %d search: empty or unsorted results", c)
						return
					}
					searches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(scrapeDone)
	scraperWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if scrapes.Load() == 0 {
		t.Error("scraper never completed a mid-storm /metrics scrape")
	}

	// The server's own counters must account for the traffic.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got := st.Endpoints["search"].Requests; got != uint64(searches.Load()) {
		t.Errorf("search counter = %d, clients sent %d", got, searches.Load())
	}
	if got := st.Endpoints["searchbatch"].Requests; got != uint64(batches.Load()) {
		t.Errorf("batch counter = %d, clients sent %d", got, batches.Load())
	}
	if st.Endpoints["search"].Errors != 0 || st.Endpoints["searchbatch"].Errors != 0 {
		t.Errorf("unexpected endpoint errors: %+v", st.Endpoints)
	}
	t.Logf("load test: %d searches, %d batches, %d insert+delete pairs across %d clients",
		searches.Load(), batches.Load(), writes.Load(), clients)
}
