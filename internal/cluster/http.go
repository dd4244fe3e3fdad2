package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/shard"
)

// searchRequest is the coordinator's /search body: the shard servers'
// schema plus require_full.
type searchRequest struct {
	api.SearchRequest
	// RequireFull selects the completeness policy: true fails the whole
	// request with 503 shard_unavailable when any shard cannot answer;
	// false (the default) serves the merged partial result with the
	// missing ordinals echoed in stats.partial_shards.
	RequireFull bool `json:"require_full"`
}

type searchBatchRequest struct {
	api.SearchBatchRequest
	RequireFull bool `json:"require_full"`
}

// healthzResponse is the coordinator's /healthz: ok when every replica
// is healthy, degraded when some are not but every shard still has a
// usable replica, unavailable (503) when at least one shard has none.
type healthzResponse struct {
	Status string `json:"status"`
	Shards int    `json:"shards"`
	Dim    int    `json:"dim"`
}

// statsResponse is the coordinator's /stats.
type statsResponse struct {
	Status      string `json:"status"`
	Coordinator Stats  `json:"coordinator"`
}

func shardUnavailable(format string, args ...any) error {
	return &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
		Msg: fmt.Sprintf(format, args...)}
}

// Handler returns the coordinator's routed HTTP handler: the shard
// servers' read API re-served cluster-wide.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", api.Handle(nil, c.handleSearch))
	mux.HandleFunc("POST /searchbatch", api.Handle(nil, c.handleSearchBatch))
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /stats", c.handleStats)
	return mux
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := c.healthStatus()
	code := http.StatusOK
	if status == "unavailable" {
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, healthzResponse{Status: status, Shards: len(c.shards), Dim: c.man.Dim})
}

// healthStatus folds the replica table into one verdict.
func (c *Coordinator) healthStatus() string {
	status := "ok"
	for _, reps := range c.shards {
		usable := 0
		for _, rep := range reps {
			if rep.isRejected() {
				status = "degraded"
				continue
			}
			switch rep.getState() {
			case stateHealthy:
				usable++
			default:
				status = "degraded"
			}
		}
		if usable == 0 {
			return "unavailable"
		}
	}
	return status
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, statsResponse{Status: c.healthStatus(), Coordinator: c.Stats()})
}

// perShard covers the checks shared by both endpoints and returns the
// tuning block to forward to every shard: the request's own, with
// max_candidates split across the scatter exactly as the in-process
// sharded index splits it. Whatever needs the built parameters (the
// cascade's shape, a preset's expansion, preset + knobs) is left to the
// shard servers, whose 400 is relayed verbatim.
func (c *Coordinator) perShard(k int, t api.Tuning) (api.Tuning, error) {
	if err := api.ValidateK(k, c.opts.MaxK); err != nil {
		return t, err
	}
	if err := t.SearchOptions.Validate(); err != nil {
		return t, err
	}
	var err error
	t.MaxCandidates, err = shard.SplitMaxCandidates(t.MaxCandidates, k, len(c.shards))
	return t, err
}

// gather scatters one sub-request to every shard, applies the
// completeness policy, and decodes the answering shards' replies into
// out (indexed by ordinal, nil where the shard did not answer). It
// returns the ordinals that did not.
func gather[T any](ctx context.Context, c *Coordinator, path string, subReq any, requireFull bool, out []*T) (failed []int, err error) {
	body, err := json.Marshal(subReq)
	if err != nil {
		return nil, err
	}
	replies, failed, permErr := c.scatter(ctx, path, body)
	if permErr != nil {
		return nil, permErr
	}
	if err := c.completeness(ctx, requireFull, failed); err != nil {
		return nil, err
	}
	for i, raw := range replies {
		if raw == nil {
			continue
		}
		out[i] = new(T)
		if err := json.Unmarshal(raw, out[i]); err != nil {
			return nil, fmt.Errorf("cluster: shard %d returned malformed response: %w", i, err)
		}
	}
	return failed, nil
}

// merge folds one query's per-shard /search replies (indexed by
// ordinal, nil where the shard did not answer) through the same
// shard.Merge the in-process sharded index runs. The preset echo, like
// the rest of the cascade echo, is the lowest answering ordinal's.
func merge(k int, failed []int, subs []*api.SearchResponse) api.SearchResponse {
	replies := make([]*shard.Reply, len(subs))
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		replies[i] = &shard.Reply{Results: sub.Results}
		if sub.Stats != nil {
			replies[i].Stats = &sub.Stats.QueryStats
		}
	}
	res, st := shard.Merge(k, replies)
	return api.SearchResponse{Results: res, Stats: &api.QueryStats{QueryStats: *st, PartialShards: failed}}
}

func (c *Coordinator) handleSearch(r *http.Request) (any, error) {
	var req searchRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := api.ValidateQuery("query", req.Query, c.man.Dim); err != nil {
		return nil, err
	}
	var err error
	if req.Tuning, err = c.perShard(req.K, req.Tuning); err != nil {
		return nil, err
	}
	ctx, cancel := api.Deadline(r, 0, req.TimeoutMs)
	defer cancel()
	subs := make([]*api.SearchResponse, len(c.shards))
	failed, err := gather(ctx, c, "/search", req.SearchRequest, req.RequireFull, subs)
	if err != nil {
		return nil, err
	}
	out := merge(req.K, failed, subs)
	if !req.Stats && len(failed) == 0 {
		out.Stats = nil
	}
	return out, nil
}

func (c *Coordinator) handleSearchBatch(r *http.Request) (any, error) {
	var req searchBatchRequest
	if err := api.DecodeBody(r, &req); err != nil {
		return nil, err
	}
	if err := api.ValidateQueries(req.Queries, c.opts.MaxBatch, c.man.Dim); err != nil {
		return nil, err
	}
	var err error
	if req.Tuning, err = c.perShard(req.K, req.Tuning); err != nil {
		return nil, err
	}
	ctx, cancel := api.Deadline(r, 0, req.TimeoutMs)
	defer cancel()
	subs := make([]*api.SearchBatchResponse, len(c.shards))
	failed, err := gather(ctx, c, "/searchbatch", req.SearchBatchRequest, req.RequireFull, subs)
	if err != nil {
		return nil, err
	}

	nq := len(req.Queries)
	for i, sub := range subs {
		if sub != nil && len(sub.Results) != nq {
			return nil, fmt.Errorf("cluster: shard %d answered %d queries, batch has %d", i, len(sub.Results), nq)
		}
	}
	out := api.SearchBatchResponse{Results: make([][]api.Result, nq), PartialShards: failed}
	if req.Stats {
		out.Stats = make([]*api.QueryStats, nq)
	}
	// One scatter carried the whole batch; the merge is per query, over
	// each shard's slice of its batch reply.
	perQuery := make([]*api.SearchResponse, len(subs))
	for qi := range out.Results {
		for i, sub := range subs {
			if sub == nil {
				continue
			}
			perQuery[i] = &api.SearchResponse{Results: sub.Results[qi]}
			if qi < len(sub.Stats) {
				perQuery[i].Stats = sub.Stats[qi]
			}
		}
		merged := merge(req.K, failed, perQuery)
		out.Results[qi] = merged.Results
		if req.Stats {
			out.Stats[qi] = merged.Stats
		}
	}
	return out, nil
}

// completeness applies the per-request policy to the scatter's failed
// ordinals. A deadline that expired mid-scatter surfaces as a timeout,
// not a partial: "the cluster lost a shard" and "the client's budget
// ran out" are different failures and get different statuses.
func (c *Coordinator) completeness(ctx context.Context, requireFull bool, failed []int) error {
	if len(failed) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(failed) == len(c.shards) {
		return shardUnavailable("all %d shards unavailable", len(c.shards))
	}
	if requireFull {
		return shardUnavailable("shards %v unavailable and require_full is set", failed)
	}
	c.partials.Add(1)
	return nil
}
