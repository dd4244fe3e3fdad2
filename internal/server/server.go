// Package server is the HTTP JSON serving layer over an HD-Index: the
// piece that turns the library into a system. It exposes kNN search
// (single and batch), index mutation, and introspection endpoints,
// honours per-request deadlines via context cancellation threaded down
// to core's query loop, and keeps per-endpoint latency/QPS counters.
// The request edge — the body cap, Server-Timing, the deadline rule and
// the mapping from an error to a status — is internal/api's (Handle,
// Deadline, WriteError), shared with the cluster coordinator.
//
// Endpoints:
//
//	POST /search      {"query": [...], "k": 10}        -> {"results": [{"id","dist"},...]}
//	POST /searchbatch {"queries": [[...],...], "k": 5} -> {"results": [[...],...]}
//	POST /insert      {"vector": [...]}                -> {"id": n}
//	POST /delete      {"id": n, "undelete": false}     -> {"deleted": n}
//	GET  /stats                                        -> index + per-endpoint counters
//	GET  /healthz                                      -> {"status": "ok"}
//
// /search and /searchbatch accept per-request tuning fields — "alpha",
// "gamma", "ptolemaic", "max_candidates" — overriding the index's
// built filter cascade for that request only, or a named quality
// preset ("preset": "exact"|"balanced"|"fast"|"auto") standing for a
// whole knob assignment; the two are mutually exclusive. Requests that
// choose neither inherit their tenant's tier preset (Config.Tiers)
// and then the server default. "stats": true returns the work counters
// with the effective cascade and resolved preset echoed back.
// Out-of-range knobs are a 400 with a structured {"error", "code"}
// body; values above the server's MaxAlpha cap are clamped, not
// rejected.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/admission"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/slo"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// Config tunes the server independently of the index parameters.
type Config struct {
	// QueryTimeout is the default deadline applied to /search and
	// /searchbatch requests. 0 means no deadline. A request may lower
	// (never raise) it with "timeout_ms".
	QueryTimeout time.Duration
	// MaxK caps the requested neighbour count and MaxBatch the number of
	// queries in one /searchbatch request (0 = the internal/api
	// defaults).
	MaxK     int
	MaxBatch int
	// MaxAlpha caps the per-request "alpha"/"gamma"/"max_candidates"
	// tuning knobs (default 1 << 20). Requests above the cap are
	// clamped to it — a tenant asking for "as much recall as allowed"
	// gets the ceiling, not an error.
	MaxAlpha int
	// ReadOnly disables /insert and /delete.
	ReadOnly bool
	// SlowQueryThreshold enables the slow-query log: /search requests
	// slower than this (and /searchbatch requests whose whole batch is)
	// are logged through Logger with the per-phase breakdown and work
	// counters. 0 disables it.
	SlowQueryThreshold time.Duration
	// Logger receives the slow-query records; nil uses slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server's
	// mux. Off by default: profiling endpoints expose internals and
	// belong behind an operator flag (hdserve -pprof).
	Pprof bool

	// Admission configures overload control on the query and mutation
	// endpoints; admission.Config documents the mechanisms and owns
	// their defaults, and its zero value disables the layer. A
	// /searchbatch weighs its query count, everything else 1. /stats,
	// /healthz and /metrics are never limited: they must answer during
	// an overload. TenantPolicy is filled in from Tiers.
	Admission admission.Config

	// DefaultPreset is the quality preset applied when a request names
	// none and its tenant's tier names none. Empty means "auto": the
	// tuner's operating point when an SLO tuner runs, the built
	// parameters otherwise, and the fast cascade under overload
	// pressure — exactly the pre-preset behaviour.
	DefaultPreset hdindex.Preset
	// Tiers maps tenants (X-Tenant) to quality tiers: a preset plus a
	// share of the admission budget (hdserve -tiers). Nil disables
	// tiering.
	Tiers *slo.TierConfig
	// SLO, when non-nil, runs the auto-tuner holding this target
	// (hdserve -slo); requires Frontier.
	SLO *slo.Target
	// Frontier is the startup recall/latency frontier the tuner picks
	// from (hdserve -frontier, written by hdbench -sweep-out). The
	// tuner refreshes it by replaying sampled real queries during
	// low-pressure windows.
	Frontier *slo.Frontier

	// Identity is the shard identity stamp of the served directory, when
	// it is one shard of a sharded build (hdserve reads identity.json
	// and passes it through). /healthz and /stats echo it so a cluster
	// coordinator can verify at startup that this endpoint serves the
	// shard its manifest says it does, instead of silently merging
	// wrong-shard results. Nil for standalone indexes.
	Identity *shard.Identity
}

func (c *Config) defaults() {
	if c.MaxAlpha <= 0 {
		c.MaxAlpha = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.DefaultPreset == "" {
		c.DefaultPreset = hdindex.PresetAuto
	}
}

// Server routes HTTP requests onto one open index. Create with New,
// mount via Handler, stop with Shutdown (which flushes the index).
type Server struct {
	idx     *hdindex.Index
	cfg     Config
	mux     *http.ServeMux
	started time.Time
	// adm is the overload-control layer; nil when Config enables none of
	// its mechanisms (every call site is nil-safe).
	adm *admission.Controller
	// tuner holds the SLO auto-tuner; nil unless Config.SLO and
	// Config.Frontier are both set. tunerStop ends its Run goroutine.
	tuner     *slo.Tuner
	tunerStop context.CancelFunc

	mSearch, mBatch, mInsert, mDelete, mStats, mHealth, mMetrics endpointMetrics
}

// New wraps an open index in a Server.
func New(idx *hdindex.Index, cfg Config) *Server {
	cfg.defaults()
	if tiers := cfg.Tiers; tiers != nil {
		// Tenants with no tier (and no default tier) keep the base budget.
		cfg.Admission.TenantPolicy = func(tenant string) admission.TenantShares {
			_, tier, _ := tiers.TierFor(tenant)
			return admission.TenantShares{RPS: tier.RPSShare, Burst: tier.BurstShare, MaxInflight: tier.MaxInflightShare}
		}
	}
	s := &Server{idx: idx, cfg: cfg, mux: http.NewServeMux(), started: time.Now(), adm: admission.New(cfg.Admission)}
	if cfg.SLO != nil && cfg.Frontier != nil {
		tuner, err := slo.NewTuner(cfg.Frontier, slo.Config{
			Target: *cfg.SLO,
			Replay: s.replay,
			// Re-measurement replays the whole sample across every
			// frontier point; skip it whenever admission is already
			// degrading or shedding real traffic.
			UnderPressure: func() bool { return s.adm.ShouldDegrade() || s.adm.Overloaded() },
		})
		if err != nil {
			// A frontier that fails validation disables tuning but must
			// not take the server down with it: auto falls back to the
			// built parameters, which is the no-tuner behaviour anyway.
			s.cfg.Logger.Error("slo tuner disabled: bad frontier", "err", err)
		} else {
			s.tuner = tuner
			ctx, cancel := context.WithCancel(context.Background())
			s.tunerStop = cancel
			go tuner.Run(ctx)
		}
	}
	s.mux.HandleFunc("POST /search", api.Handle(s.mSearch.observe, s.handleSearch))
	s.mux.HandleFunc("POST /searchbatch", api.Handle(s.mBatch.observe, s.handleSearchBatch))
	s.mux.HandleFunc("POST /insert", api.Handle(s.mInsert.observe, s.handleInsert))
	s.mux.HandleFunc("POST /delete", api.Handle(s.mDelete.observe, s.handleDelete))
	s.mux.HandleFunc("GET /stats", api.Handle(s.mStats.observe, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		// The default-mux registrations of net/http/pprof, mounted
		// explicitly so the server never depends on http.DefaultServeMux.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// replay is the tuner's ReplayFunc: it runs the sampled queries
// against the live index at an explicit operating point and reports
// latencies plus result IDs. It goes through the facade (not HTTP), so
// replays never count against admission or endpoint metrics.
func (s *Server) replay(ctx context.Context, queries [][]float32, k, alpha, gamma int) (slo.ReplayResult, error) {
	return slo.Measure(queries, func(q []float32) ([]uint64, error) {
		resp, err := s.idx.Query(ctx, q, k,
			hdindex.WithAlpha(max(alpha, k)), hdindex.WithGamma(max(gamma, k)))
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, len(resp.Results))
		for j, r := range resp.Results {
			ids[j] = r.ID
		}
		return ids, nil
	})
}

// Handler returns the routed http.Handler for mounting in an
// http.Server or a test server.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops the tuner and flushes the index; call after the
// http.Server has drained.
func (s *Server) Shutdown() error {
	if s.tunerStop != nil {
		s.tunerStop()
	}
	return s.idx.Flush()
}

// resolvePreset picks the request's effective quality preset:
// the explicit "preset" field, else — only when the request also
// spelled no explicit knobs — the tenant's tier preset, else the
// server default. A request may not combine "preset" with explicit
// knobs: a preset IS a knob assignment, and silently letting one win
// would hide the conflict.
func (s *Server) resolvePreset(r *http.Request, t api.Tuning) (hdindex.Preset, error) {
	if t.Preset != "" {
		if t.HasKnobs() {
			return "", api.BadRequest(api.CodeBadOptions, "preset %q cannot be combined with explicit tuning knobs", t.Preset)
		}
		p, err := hdindex.ParsePreset(t.Preset)
		if err != nil {
			return "", api.BadRequest(api.CodeBadOptions, "%v", err)
		}
		return p, nil
	}
	if t.HasKnobs() {
		// Explicit knobs are their own quality choice; tier and server
		// defaults must not override them.
		return hdindex.PresetAuto, nil
	}
	if name := s.cfg.Tiers.PresetFor(r.Header.Get("X-Tenant")); name != "" {
		return hdindex.Preset(name), nil // validated when the tier config loaded
	}
	return s.cfg.DefaultPreset, nil
}

// autoOptions takes the auto preset's post-admission decision for a
// request's options o. Under pressure a request that left α and γ unset
// runs the fast preset's α, β and γ, and degraded reports whether that
// lowered a knob; otherwise a request with no knobs at all runs the SLO
// tuner's operating point when one runs, and the built parameters when
// none does. Explicit α or γ are the request's own contract and are
// kept as they are.
func (s *Server) autoOptions(o hdindex.SearchOptions, k int) (_ hdindex.SearchOptions, degraded bool) {
	if s.adm.ShouldDegrade() {
		if o.Alpha != 0 || o.Gamma != 0 {
			return o, false
		}
		fast, err := s.idx.PresetOptions(hdindex.PresetFast, k)
		if err != nil || fast == (hdindex.SearchOptions{}) {
			return o, false // a bad k fails in the query, as without pressure
		}
		o.Alpha, o.Beta, o.Gamma = fast.Alpha, fast.Beta, fast.Gamma
		return o, true
	}
	if s.tuner != nil && o == (hdindex.SearchOptions{}) {
		if ch := s.tuner.Current(); ch.Alpha > 0 {
			// Clamped up to k: a frontier measured at k=10 must not make
			// a k=500 request invalid.
			o.Alpha, o.Gamma = max(ch.Alpha, k), max(ch.Gamma, k)
		}
	}
	return o, false
}

// admitted is what begin hands a search handler: the deadline-bound
// context, the resolved query options, what to echo in stats (the
// preset and whether pressure degraded the cascade), and the release
// the handler must call exactly once when the work finishes (it frees
// the admission slot and the deadline).
type admitted struct {
	ctx      context.Context
	opts     []hdindex.QueryOption
	preset   hdindex.Preset
	degraded bool
	done     func()
}

// stats stamps the serving layer's echo onto one query's stats block.
func (a admitted) stats(st *hdindex.Stats) *api.QueryStats {
	st.Preset, st.Degraded = a.preset, a.degraded
	return &api.QueryStats{QueryStats: *st}
}

// begin is the part of /search and /searchbatch between validation and
// the index call, and the one place a request's cascade is decided: it
// resolves the request's quality preset into query options, applies the
// effective deadline, and runs admission with the request's weight (a
// batch weighs its query count: one huge /searchbatch occupies the
// limiter like the equivalent run of single searches would). Admission
// takes the per-tenant token bucket first, then the weighted
// concurrency limiter, queueing against the request's own deadline; a
// nil controller admits everything for free.
//
// Named presets (exact/balanced/fast) are pinned: their knobs come
// straight from the preset table and pressure degradation never touches
// them. Auto runs the explicit knobs — negative ones a 400, ones above
// MaxAlpha clamped to it — and the degrade/tuner decision is taken
// after the queue wait, against the current pressure: a request that
// queued through the worst of a burst does not pay the quality cut if
// pressure already fell.
//
// With the slow-query log armed, stats are requested regardless of the
// client's wish (the phase breakdown is the log's payload); handlers
// strip them from the response when not asked for.
func (s *Server) begin(r *http.Request, t api.Tuning, k, timeoutMs, weight int, wantStats bool) (admitted, error) {
	preset, err := s.resolvePreset(r, t)
	if err != nil {
		return admitted{}, err
	}
	pinned := preset != hdindex.PresetAuto
	o := t.SearchOptions
	if pinned {
		o, err = s.idx.PresetOptions(preset, k)
	} else if err = o.Validate(); err == nil {
		o.Alpha = min(o.Alpha, s.cfg.MaxAlpha)
		o.Gamma = min(o.Gamma, s.cfg.MaxAlpha)
		o.MaxCandidates = min(o.MaxCandidates, s.cfg.MaxAlpha)
	}
	if err != nil {
		return admitted{}, err
	}
	ctx, cancel := api.Deadline(r, s.cfg.QueryTimeout, timeoutMs)
	release, err := s.adm.Acquire(ctx, r.Header.Get("X-Tenant"), weight)
	if err != nil {
		cancel()
		return admitted{}, err
	}
	a := admitted{ctx: ctx, preset: preset, done: func() { release(); cancel() }}
	if !pinned {
		o, a.degraded = s.autoOptions(o, k)
	}
	a.opts = []hdindex.QueryOption{hdindex.WithOptions(o)}
	if wantStats || s.cfg.SlowQueryThreshold > 0 {
		a.opts = append(a.opts, hdindex.WithStats())
	}
	return a, nil
}

func (s *Server) handleSearch(r *http.Request) (any, error) {
	var req api.SearchRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := api.ValidateQuery("query", req.Query, s.idx.Dim()); err != nil {
		return nil, err
	}
	if err := api.ValidateK(req.K, s.cfg.MaxK); err != nil {
		return nil, err
	}
	a, err := s.begin(r, req.Tuning, req.K, req.TimeoutMs, 1, req.Stats)
	if err != nil {
		return nil, err
	}
	defer a.done()
	if s.tuner != nil {
		s.tuner.Record(req.Query)
	}

	start := time.Now()
	resp, err := s.idx.Query(a.ctx, req.Query, req.K, a.opts...)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.adm.Observe(elapsed)
	if s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold {
		s.logSlowQuery("search", elapsed, 1, req.K, resp.Stats)
	}
	out := api.SearchResponse{Results: resp.Results}
	if req.Stats {
		out.Stats = a.stats(resp.Stats)
	}
	return out, nil
}

// logSlowQuery emits one structured slow-query record: the endpoint,
// the request shape, and the full per-phase breakdown with the work
// counters — enough to tell a cold-cache refinement stall from a
// memtable pileup without re-running the query.
func (s *Server) logSlowQuery(endpoint string, elapsed time.Duration, queries, k int, st *hdindex.Stats) {
	attrs := []any{
		slog.String("endpoint", endpoint),
		slog.Duration("elapsed", elapsed),
		slog.Int("queries", queries),
		slog.Int("k", k),
	}
	if st != nil {
		phases := make([]any, 0, telemetry.NumPhases)
		for i, ns := range st.Phases {
			phases = append(phases, slog.Duration(telemetry.Phase(i).String(), time.Duration(ns)))
		}
		attrs = append(attrs,
			slog.Group("phases", phases...),
			slog.Int("candidates", st.Candidates),
			slog.Int("tree_entries", st.TreeEntries),
			slog.Uint64("page_reads", st.PageReads),
			slog.Uint64("page_misses", st.PageMisses),
			slog.Int("exact_distances", st.ExactDistances),
			slog.Int("memtable_scanned", st.MemtableScanned),
			slog.Int("alpha", st.Alpha),
			slog.Int("gamma", st.Gamma),
		)
	}
	s.cfg.Logger.Warn("slow query", attrs...)
}

func (s *Server) handleSearchBatch(r *http.Request) (any, error) {
	var req api.SearchBatchRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := api.ValidateQueries(req.Queries, s.cfg.MaxBatch, s.idx.Dim()); err != nil {
		return nil, err
	}
	if err := api.ValidateK(req.K, s.cfg.MaxK); err != nil {
		return nil, err
	}
	a, err := s.begin(r, req.Tuning, req.K, req.TimeoutMs, len(req.Queries), req.Stats)
	if err != nil {
		return nil, err
	}
	defer a.done()

	start := time.Now()
	res, err := s.idx.QueryBatch(a.ctx, req.Queries, req.K, a.opts...)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.adm.Observe(elapsed)
	if s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold {
		// One record for the whole batch, with the work summed across
		// its queries — per-query records would let a big batch flood
		// the log.
		agg := &hdindex.Stats{}
		for _, rs := range res {
			if rs.Stats != nil {
				agg.Add(*rs.Stats)
			}
		}
		s.logSlowQuery("searchbatch", elapsed, len(req.Queries), req.K, agg)
	}
	out := api.SearchBatchResponse{Results: make([][]api.Result, len(res))}
	if req.Stats {
		out.Stats = make([]*api.QueryStats, len(res))
	}
	for i, rs := range res {
		out.Results[i] = rs.Results
		if req.Stats {
			out.Stats[i] = a.stats(rs.Stats)
		}
	}
	return out, nil
}

type insertRequest struct {
	Vector []float32 `json:"vector"`
}

func (s *Server) handleInsert(r *http.Request) (any, error) {
	if s.cfg.ReadOnly {
		return nil, &api.Error{Status: http.StatusForbidden, Msg: "server is read-only"}
	}
	var req insertRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := api.ValidateQuery("vector", req.Vector, s.idx.Dim()); err != nil {
		return nil, err
	}
	release, err := s.adm.Acquire(r.Context(), r.Header.Get("X-Tenant"), 1)
	if err != nil {
		return nil, err
	}
	defer release()
	// Insert is durable when it returns — the index WAL-logs it — so no
	// flush here: the old flush-per-insert path serialised every write
	// against in-flight searches and rewrote whole pages per vector.
	id, err := s.idx.Insert(req.Vector)
	if err != nil {
		return nil, err
	}
	return map[string]uint64{"id": id}, nil
}

type deleteRequest struct {
	ID       uint64 `json:"id"`
	Undelete bool   `json:"undelete"`
}

func (s *Server) handleDelete(r *http.Request) (any, error) {
	if s.cfg.ReadOnly {
		return nil, &api.Error{Status: http.StatusForbidden, Msg: "server is read-only"}
	}
	var req deleteRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	release, err := s.adm.Acquire(r.Context(), r.Header.Get("X-Tenant"), 1)
	if err != nil {
		return nil, err
	}
	defer release()
	op, verb := s.idx.Delete, "deleted"
	if req.Undelete {
		op, verb = s.idx.Undelete, "undeleted"
	}
	if err := op(req.ID); err != nil {
		return nil, err
	}
	return map[string]uint64{verb: req.ID}, nil
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	// Index is the index's one report of itself, hdindex.Info.
	Index         hdindex.Info             `json:"index"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Health mirrors /healthz's status field so one /stats poll carries
	// the whole serving picture.
	Health string `json:"health"`
	// Identity is the shard identity stamp when this server holds one
	// shard of a sharded build (see Config.Identity).
	Identity *shard.Identity `json:"identity,omitempty"`
	// Admission is the overload-control block: accepted/shed counters,
	// live inflight/queued occupancy, the pressure signal, and whether
	// new unpinned queries are being degraded. Omitted when admission
	// control is disabled.
	Admission *admission.Stats `json:"admission,omitempty"`
	// SLO is the auto-tuner block: the target, the current operating
	// point with its reason and slo_unmet flag, the decision history,
	// and the live re-measurement counters. Omitted when no tuner runs.
	SLO *slo.Stats `json:"slo,omitempty"`
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	now := time.Now()
	info := s.idx.Info()
	resp := StatsResponse{
		Index:         info,
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Health:        s.healthState(info.WAL),
		Identity:      s.cfg.Identity,
	}
	if s.adm != nil {
		st := s.adm.Stats()
		resp.Admission = &st
	}
	if s.tuner != nil {
		st := s.tuner.Stats()
		resp.SLO = &st
	}
	resp.Endpoints = make(map[string]EndpointStats, 7)
	for _, ep := range s.endpointsInOrder() {
		resp.Endpoints[ep.name] = ep.m.statsRow(s.started, now)
	}
	return resp, nil
}

// healthState resolves the serving state machine, most severe first:
//
//	read_only  — the WAL failed; writes are rejected, reads keep serving
//	overloaded — the admission queue is saturated and requests are shed
//	degraded   — pressure-degraded cascades, or the compaction circuit
//	             breaker is open (old tree generation serving)
//	ok
func (s *Server) healthState(ist hdindex.IngestStats) string {
	switch {
	case ist.WALFailed:
		return "read_only"
	case s.adm.Overloaded():
		return "overloaded"
	case s.adm.ShouldDegrade() || ist.CompactBreaker == "open":
		return "degraded"
	}
	return "ok"
}

// handleHealthz reports the health state machine. Status is 200 for
// ok, degraded, and read_only — the server is still answering queries
// and a restart would not help — and 503 for overloaded, which pulls
// the instance out of load-balancer rotation until the storm passes.
// Registered raw (not through api.Handle) so the body always carries
// the "status" field whatever the HTTP code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := s.healthState(s.idx.IngestStats())
	code := http.StatusOK
	if status == "overloaded" {
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, api.Healthz{
		Status:   status,
		Count:    s.idx.Count(),
		Dim:      s.idx.Dim(),
		Identity: s.cfg.Identity,
	})
	s.mHealth.observe(time.Since(start), code != http.StatusOK)
}
