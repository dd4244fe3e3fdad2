package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/server"
)

const (
	clusterAlpha = 1024
	clusterGamma = 256
)

// listener is one loopback HTTP server in the driver's process.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// stop shuts the server down and waits for its goroutine.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// searchReply is the part of a /search response the driver reads.
type searchReply struct {
	Results []struct {
		ID   uint64  `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"results"`
	Stats *struct {
		Candidates      int                `json:"candidates"`
		TreeEntries     int                `json:"tree_entries"`
		PageReads       uint64             `json:"page_reads"`
		PageHits        uint64             `json:"page_hits"`
		PageMisses      uint64             `json:"page_misses"`
		ExactDistances  int                `json:"exact_distances"`
		MemtableScanned int                `json:"memtable_scanned"`
		PhaseUS         map[string]float64 `json:"phase_us"`
	} `json:"stats"`
}

func (r *searchReply) neighbours() []neighbour {
	out := make([]neighbour, len(r.Results))
	for i, x := range r.Results {
		out[i] = neighbour{id: x.ID, dist: x.Dist}
	}
	return out
}

// stats converts the wire stats block into the program's own type so
// one accumulator serves every workload.
func (r *searchReply) stats() *hdindex.Stats {
	if r.Stats == nil {
		return nil
	}
	st := &hdindex.Stats{
		Candidates: r.Stats.Candidates, TreeEntries: r.Stats.TreeEntries,
		PageReads: r.Stats.PageReads, PageHits: r.Stats.PageHits, PageMisses: r.Stats.PageMisses,
		ExactDistances: r.Stats.ExactDistances, MemtableScanned: r.Stats.MemtableScanned,
	}
	for i, p := range phaseNames {
		st.Phases[i] = int64(r.Stats.PhaseUS[p] * 1e3)
	}
	return st
}

// post sends one /search and returns the time until the whole reply was
// read, the status and the body.
func post(client *http.Client, url string, body []byte) (time.Time, time.Duration, int, []byte, error) {
	t0 := time.Now()
	resp, err := client.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return t0, time.Since(t0), 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return t0, time.Since(t0), resp.StatusCode, raw, err
}

func (b *bench) runCluster() error {
	ctx := context.Background()
	t0 := time.Now()
	mix := newMixture(b.sc.n, b.rng(rngData).Int63())
	base := mix.draw(b.sc.n)
	queries := makeQueries(base, b.sc.queries, b.rng(rngQueries))
	truth := bruteForce(base, seqIDs(len(base)), queries, k)
	plainBody := make([][]byte, len(queries))
	statsBody := make([][]byte, len(queries))
	for i, q := range queries {
		req := map[string]any{"query": q, "k": k, "alpha": clusterAlpha, "gamma": clusterGamma}
		var err error
		if plainBody[i], err = json.Marshal(req); err != nil {
			return err
		}
		req["stats"] = true
		if statsBody[i], err = json.Marshal(req); err != nil {
			return err
		}
	}
	b.prep = time.Since(t0)

	opts := buildOptions(shards, 0)
	dir, buildD, err := b.buildIndex(base, opts)
	if err != nil {
		return err
	}

	// One server per shard directory, one replica each, and the
	// coordinator in front; everything at its default configuration.
	t0 = time.Now()
	man := &cluster.Manifest{FormatVersion: cluster.ManifestFormatVersion, Dim: dim}
	nodes := make([]*hdindex.Index, shards)
	urls := make([]string, shards)
	for s := range nodes {
		idx, err := hdindex.Open(shardDir(dir, s), hdindex.Options{})
		if err != nil {
			return fmt.Errorf("open shard %d: %w", s, err)
		}
		defer idx.Close()
		l, err := listen(server.New(idx, server.Config{}).Handler())
		if err != nil {
			return err
		}
		defer l.stop()
		nodes[s], urls[s] = idx, l.url
		man.Shards = append(man.Shards, cluster.ShardSpec{Ordinal: s, Replicas: []string{l.url}})
	}
	coord, err := cluster.New(man, cluster.Options{})
	if err != nil {
		return err
	}
	defer coord.Close()
	front, err := listen(coord.Handler())
	if err != nil {
		return err
	}
	defer front.stop()
	startD := time.Since(t0)
	b.tr.add("Open+serve", -1, 0, t0, startD, nil)

	clients := min(2, nproc())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	limit := uint64(len(base))
	var non200 int
	var sums layerSums
	var mu sync.Mutex // guards non200, sums and answers between clients
	answers := make([][]neighbour, len(queries))

	// search posts one query to the coordinator as a client sees it and
	// checks the answer.
	search := func(parent, qi int, traced bool, lat *timings) {
		body := plainBody[qi]
		if traced {
			body = statsBody[qi]
		}
		t0, d, code, raw, err := post(client, front.url, body)
		if err != nil {
			b.op("POST /search: " + err.Error())
			return
		}
		if code != http.StatusOK {
			mu.Lock()
			non200++
			mu.Unlock()
			b.op(fmt.Sprintf("POST /search: status %d: %s", code, raw))
			return
		}
		var reply searchReply
		if err := json.Unmarshal(raw, &reply); err != nil {
			b.op("POST /search: " + err.Error())
			return
		}
		nb := reply.neighbours()
		mu.Lock()
		if lat != nil {
			lat.add(t0, d)
		}
		if traced {
			b.tr.add("HTTP coordinator /search", parent, int64(qi), t0, d, sums.add(reply.stats(), d))
		}
		reason := badResult(nb, limit, nil)
		if answers[qi] == nil {
			answers[qi] = nb
		} else if reason == "" && !sameResults(nb, answers[qi]) {
			reason = fmt.Sprintf("query %d answered differently on a repeat", qi)
		}
		mu.Unlock()
		b.op(reason)
	}

	// storm runs the closed loop: each client waits for its reply, the
	// clients start half the query set apart.
	storm := func(name string, perClient int, traced bool) (*timings, time.Time) {
		lat := new(timings)
		parent := b.tr.open(name, -1)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					search(parent, (i+c*len(queries)/clients)%len(queries), traced, lat)
				}
			}(c)
		}
		wg.Wait()
		b.tr.finish(parent)
		return lat, t0
	}
	// Warm-up: the clients cover the query set once between them.
	_, warmStart := storm("warm-up", len(queries)/clients, false)
	warmD := time.Since(warmStart)
	b.set("setup_s", (buildD + startD + warmD).Seconds())
	b.note("set-up: build %.3f s (median of %d) + open and serve %.4f s + warm-up pass %.3f s", buildD.Seconds(), numBuilds, startD.Seconds(), warmD.Seconds())

	perClient := b.scaled(float64(b.sc.clusterReqs))
	var lat *timings
	var loopStart time.Time
	run := func() { lat, loopStart = storm("client-loop", perClient, b.tr != nil) }
	if b.tr != nil {
		allocs, bytes := memDelta(run)
		b.set("core.allocs_per_query", allocs/float64(clients*perClient))
		b.set("core.alloc_bytes_per_query", bytes/float64(clients*perClient))
	} else {
		run()
	}
	b.set("ops_per_s", lat.rate(loopStart))
	b.note("client loop: %d keep-alive clients x %d POST /search", clients, perClient)
	lat.emit(b)
	var reads uint64
	for _, idx := range nodes {
		reads += idx.IOStats().Reads
	}
	b.set("page_reads_per_query", float64(reads)/float64(len(queries)+clients*perClient))

	var score scorer
	for qi, nb := range answers {
		if nb != nil {
			score.add(nb, truth[qi])
		}
	}
	score.emit(b)

	// The coordinator's answers must be identical — ids, distances,
	// order — to Query on the same two shards in one process.
	whole, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		return fmt.Errorf("open in-process: %w", err)
	}
	defer whole.Close()
	b.set("index_bytes_per_vector", float64(whole.SizeOnDisk())/float64(whole.Count()))
	qopts := []hdindex.QueryOption{hdindex.WithAlpha(clusterAlpha), hdindex.WithGamma(clusterGamma)}
	sample := min(b.sc.verifyQueries, len(queries))
	for qi := 0; qi < sample; qi++ {
		resp, err := whole.Query(ctx, queries[qi], k, qopts...)
		reason := ""
		switch {
		case err != nil:
			reason = "in-process query: " + err.Error()
		case !sameResults(toNeighbours(resp.Results), answers[qi]):
			reason = fmt.Sprintf("coordinator answer to query %d differs from the in-process two-shard index", qi)
		}
		b.op(reason)
	}
	if b.tr == nil {
		return nil
	}

	// Traced extras.
	sums.emit(b, clusterAlpha, shards)
	b.set("core.open_ms", float64(startD.Nanoseconds())/1e6)
	plain, _ := storm("untraced-client-loop", max(perClient/4, 1), false)
	b.set("bench.trace_overhead_pct", 100*ratio(median(lat.us)-median(plain.us), median(plain.us)))

	// What each hop adds, per query: in-process on shard 0, the same
	// shard over HTTP, the other shard over HTTP, then the coordinator.
	httpOver := make([]float64, 0, sample)
	hopOver := make([]float64, 0, sample)
	one := func(name string, qi int, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		b.tr.add(name, -1, int64(qi), t0, d, nil)
		return float64(d.Nanoseconds()) / 1e3, err
	}
	direct := func(url string, qi int) func() error {
		return func() error {
			_, _, code, raw, err := post(client, url, plainBody[qi])
			if err == nil && code != http.StatusOK {
				non200++
				err = fmt.Errorf("status %d: %s", code, raw)
			}
			return err
		}
	}
	for qi := 0; qi < sample; qi++ {
		inproc, err := one("Query shard-0", qi, func() error {
			_, err := nodes[0].Query(ctx, queries[qi], k, qopts...)
			return err
		})
		if err != nil {
			return err
		}
		var viaHTTP [shards]float64
		for s := range viaHTTP {
			if viaHTTP[s], err = one(fmt.Sprintf("HTTP shard-%d /search", s), qi, direct(urls[s], qi)); err != nil {
				return err
			}
		}
		viaCoord, err := one("HTTP coordinator /search", qi, direct(front.url, qi))
		if err != nil {
			return err
		}
		httpOver = append(httpOver, viaHTTP[0]-inproc)
		hopOver = append(hopOver, viaCoord-slices.Max(viaHTTP[:]))
	}
	b.set("server.http_overhead_us", median(httpOver))
	b.set("cluster.hop_overhead_us", median(hopOver))
	cs := coord.Stats()
	b.set("cluster.retries", float64(cs.Retries))
	b.set("cluster.failovers", float64(cs.Failovers))
	b.set("cluster.hedges_fired", float64(cs.HedgesFired))
	b.set("server.non200", float64(non200))
	return nil
}
