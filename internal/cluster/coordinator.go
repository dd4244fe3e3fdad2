package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// Options tunes the coordinator's robustness machinery. The zero value
// gets sane defaults for every field.
type Options struct {
	// MaxAttempts is the total number of replica attempts per
	// sub-query, hedges excluded (default 4). Attempts walk the shard's
	// replica list in health order, wrapping around.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// (with ±50% jitter) slept between attempts after a transient
	// failure (defaults 5ms, 250ms). A 503 shed skips the sleep: the
	// replica is alive, the next one may be idle.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// SubQueryTimeout caps one attempt against one replica (default
	// 5s). The incoming request's own deadline still applies on top.
	SubQueryTimeout time.Duration
	// HedgeDelay fixes the hedging trigger: a sub-query outliving it
	// fires the same request at the next replica, first answer wins.
	// 0 (the default) adapts: the delay is the windowed p99 of recent
	// successful sub-query latency, clamped to [hedgeMinDelay,
	// hedgeMaxDelay].
	HedgeDelay time.Duration
	// DisableHedging turns hedged requests off entirely.
	DisableHedging bool
	// HealthInterval is the active health-check cadence (default
	// 500ms). Negative disables active probing — replica states then
	// move only on sub-query outcomes.
	HealthInterval time.Duration
	// MaxK and MaxBatch mirror the shard servers' request caps (0 = the
	// internal/api defaults).
	MaxK     int
	MaxBatch int
}

// hedgeMinDelay and hedgeMaxDelay clamp the adaptive hedge delay; the
// max also applies while the latency window is still empty.
const (
	hedgeMinDelay = 2 * time.Millisecond
	hedgeMaxDelay = 200 * time.Millisecond
)

func (o *Options) defaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	if o.SubQueryTimeout <= 0 {
		o.SubQueryTimeout = 5 * time.Second
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
}

// Stats is the coordinator's point-in-time counters for /stats.
type Stats struct {
	// Retries counts extra attempts beyond each sub-query's first;
	// Failovers counts sub-queries answered by a replica other than
	// the first choice.
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	// HedgesFired counts hedge requests launched; HedgeWins counts the
	// ones that answered before the request they backed up.
	HedgesFired uint64 `json:"hedges_fired"`
	HedgeWins   uint64 `json:"hedge_wins"`
	// PartialResponses counts requests served with at least one shard
	// missing; ShardUnavailable counts sub-queries that exhausted every
	// replica and attempt.
	PartialResponses uint64 `json:"partial_responses"`
	ShardUnavailable uint64 `json:"shard_unavailable"`
	// SubqueryP50US/P99US summarise successful sub-query latency.
	SubqueryP50US float64 `json:"subquery_p50_us"`
	SubqueryP99US float64 `json:"subquery_p99_us"`
	// HedgeDelayUS is the delay a hedge fired right now would wait.
	HedgeDelayUS float64      `json:"hedge_delay_us"`
	Shards       []ShardStats `json:"shards"`
}

// ShardStats is one shard's replica health table.
type ShardStats struct {
	Ordinal  int            `json:"ordinal"`
	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's row of the health table.
type ReplicaStats struct {
	URL      string `json:"url"`
	State    string `json:"state"`
	Fails    int32  `json:"consecutive_failures"`
	Verified bool   `json:"verified"`
	Rejected bool   `json:"rejected,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

// Coordinator scatter-gathers queries over the manifest's shard
// servers. Construct with New, release with Close.
type Coordinator struct {
	man    *Manifest
	opts   Options
	client *http.Client
	shards [][]*replica

	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once

	retries     atomic.Uint64
	failovers   atomic.Uint64
	hedges      atomic.Uint64
	hedgeWins   atomic.Uint64
	partials    atomic.Uint64
	unavailable atomic.Uint64

	// subq is successful sub-query latency; its windowed p99 is the
	// adaptive hedge delay.
	subq *telemetry.WindowedP99
	now  func() time.Time // the hedge window's clock; test seam
}

// New builds a Coordinator over a validated manifest and starts the
// health checker. It does not contact any endpoint — call Verify to
// run the startup identity check.
func New(man *Manifest, opts Options) (*Coordinator, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	c := &Coordinator{
		man:        man,
		opts:       opts,
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
		now:        time.Now,
	}
	c.subq = telemetry.NewWindowedP99(func() time.Time { return c.now() })
	// A pooled transport sized for the fan-out.
	c.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     60 * time.Second,
	}}
	c.shards = make([][]*replica, len(man.Shards))
	for i, s := range man.Shards {
		c.shards[i] = make([]*replica, len(s.Replicas))
		for j, u := range s.Replicas {
			c.shards[i][j] = &replica{url: normalizeURL(u), ordinal: i, pos: j}
		}
	}
	if opts.HealthInterval > 0 {
		go c.healthLoop()
	} else {
		close(c.healthDone)
	}
	return c, nil
}

// Close stops the health checker and releases pooled connections.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.healthStop) })
	<-c.healthDone
	c.client.CloseIdleConnections()
}

// NumShards returns the cluster's shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Dim returns the indexed dimensionality per the manifest.
func (c *Coordinator) Dim() int { return c.man.Dim }

// Stats snapshots the coordinator's counters and health table.
func (c *Coordinator) Stats() Stats {
	snap := c.subq.Snapshot()
	st := Stats{
		Retries:          c.retries.Load(),
		Failovers:        c.failovers.Load(),
		HedgesFired:      c.hedges.Load(),
		HedgeWins:        c.hedgeWins.Load(),
		PartialResponses: c.partials.Load(),
		ShardUnavailable: c.unavailable.Load(),
		SubqueryP50US:    snap.Quantile(0.50) / 1e3,
		SubqueryP99US:    snap.Quantile(0.99) / 1e3,
		HedgeDelayUS:     float64(c.hedgeDelay().Microseconds()),
	}
	for i, reps := range c.shards {
		ss := ShardStats{Ordinal: i}
		for _, r := range reps {
			ss.Replicas = append(ss.Replicas, r.stats())
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// hedgeDelay returns the delay after which a slow sub-query is hedged:
// the configured constant, or the windowed p99 of recent successful
// sub-query latency clamped to [hedgeMinDelay, hedgeMaxDelay]. While
// the window is empty (cold start) the max applies — hedging too
// eagerly before any latency is known would double every request.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.opts.HedgeDelay > 0 {
		return c.opts.HedgeDelay
	}
	p99 := time.Duration(c.subq.P99NS())
	if p99 == 0 {
		return hedgeMaxDelay
	}
	return min(max(p99, hedgeMinDelay), hedgeMaxDelay)
}

// ShardError reports a sub-query that exhausted every replica of one
// shard. The completeness policy decides what it becomes: a partial
// response or a 503 "shard_unavailable".
type ShardError struct {
	Ordinal int
	Err     error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d unavailable: %v", e.Ordinal, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// maxReplyBytes caps the shard reply the coordinator reads; a variable
// so a test can lower it.
var maxReplyBytes int64 = api.MaxBodyBytes

// upstreamError turns a shard server's 4xx reply into an error for the
// client: the shard's status, and the message and code of its
// structured body, which api.WriteError renders back byte for byte. A
// body that is not exactly one ErrorBody becomes the message as trimmed
// text. A 4xx means the request itself is wrong (bad options, dim
// mismatch), so no amount of retrying or failing over can fix it.
func upstreamError(status int, body []byte) *api.Error {
	e := &api.Error{Status: status}
	var eb *api.ErrorBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&eb) == nil && eb != nil && dec.Decode(new(struct{})) == io.EOF {
		e.Msg, e.Code = eb.Error, eb.Code
	} else {
		e.Msg = string(bytes.TrimSpace(body))
	}
	return e
}

// class is the retry policy's verdict on one attempt.
type class int

const (
	classOK        class = iota
	classShed            // alive but shedding (503+Retry-After / 429): fail over NOW, no sleep
	classTransient       // connect error, timeout, or 5xx: back off, then next replica
	classPermanent       // 4xx or an over-cap reply: every replica would answer alike, do not retry
)

// attemptOut is one attempt's outcome inside the hedging race.
type attemptOut struct {
	body    []byte
	class   class
	err     error
	hedged  bool
	elapsed time.Duration
}

// doOnce runs one sub-query attempt against one replica.
func (c *Coordinator) doOnce(ctx context.Context, rep *replica, path string, body []byte) ([]byte, class, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.SubQueryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, classPermanent, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		// Passive health: a connect error or timeout is the same signal
		// a failed probe is — unless the parent context was cancelled,
		// which happens to every hedge race's loser and must not smear
		// a healthy replica.
		if ctx.Err() == nil {
			rep.noteFailure(err.Error())
		}
		return nil, classTransient, fmt.Errorf("%s: %w", rep.url, err)
	}
	defer resp.Body.Close()
	// One byte past the cap tells a reply that fits from one cut off.
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err != nil {
		if ctx.Err() == nil {
			rep.noteFailure(err.Error())
		}
		return nil, classTransient, fmt.Errorf("%s: read response: %w", rep.url, err)
	}
	if int64(len(payload)) > maxReplyBytes {
		// Every replica would send the same bytes, and none is at
		// fault: no retry and no health penalty.
		return nil, classPermanent, &api.Error{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("cluster: shard %d reply exceeds %d bytes", rep.ordinal, maxReplyBytes)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		rep.noteSuccess()
		return payload, classOK, nil
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		// An admission shed: the replica is alive and telling us to go
		// away. Another replica may be idle — fail over immediately
		// rather than sleeping out a backoff the Retry-After already
		// priced higher.
		rep.noteSuccess()
		return nil, classShed, fmt.Errorf("%s: shed with %d (Retry-After %s)", rep.url, resp.StatusCode, resp.Header.Get("Retry-After"))
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, classPermanent, upstreamError(resp.StatusCode, payload)
	default:
		rep.noteFailure(fmt.Sprintf("HTTP %d", resp.StatusCode))
		return nil, classTransient, fmt.Errorf("%s: HTTP %d: %s", rep.url, resp.StatusCode, bytes.TrimSpace(payload))
	}
}

// raceOnce runs one attempt with hedging: the primary is fired
// immediately; if it outlives the hedge delay and a distinct secondary
// exists, the same request is fired there too and the first success
// wins, the loser cancelled. A primary that fails before the hedge
// fires returns immediately (the outer retry loop is the right place
// to pick the next replica — with backoff if warranted).
func (c *Coordinator) raceOnce(ctx context.Context, primary, secondary *replica, path string, body []byte) ([]byte, class, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptOut, 2)
	launch := func(rep *replica, hedged bool) {
		start := time.Now()
		go func() {
			b, cl, err := c.doOnce(rctx, rep, path, body)
			results <- attemptOut{body: b, class: cl, err: err, hedged: hedged, elapsed: time.Since(start)}
		}()
	}
	launch(primary, false)

	var hedgeTimer <-chan time.Time
	if secondary != nil && !c.opts.DisableHedging {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeTimer = t.C
	}

	inflight := 1
	var firstFail *attemptOut
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			c.hedges.Add(1)
			launch(secondary, true)
			inflight++
		case out := <-results:
			inflight--
			if out.class == classOK {
				c.subq.Observe(out.elapsed.Nanoseconds())
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return out.body, classOK, nil
			}
			if firstFail == nil {
				firstFail = &out
			}
			// A shed verdict beats a transient one for the outer loop
			// (it skips the backoff sleep), and a permanent verdict
			// beats everything (retrying cannot help).
			if out.class == classPermanent {
				return nil, classPermanent, out.err
			}
			if out.class == classShed {
				firstFail = &out
			}
			if inflight > 0 {
				continue // the race partner may still succeed
			}
			return nil, firstFail.class, firstFail.err
		}
	}
}

// replicaOrder returns the shard's replicas in attempt order: healthy
// first, then suspect, then down (a down replica is a hint, not a
// verdict — when everything else failed it is still worth one try),
// manifest order within each state. Rejected replicas (identity
// mismatch) are excluded entirely.
func (c *Coordinator) replicaOrder(ordinal int) []*replica {
	reps := c.shards[ordinal]
	out := make([]*replica, 0, len(reps))
	for wantState := stateHealthy; wantState <= stateDown; wantState++ {
		for _, r := range reps {
			if !r.isRejected() && r.getState() == wantState {
				out = append(out, r)
			}
		}
	}
	return out
}

// queryShard answers one sub-query against one shard: walk the replica
// order with retries, immediate failover on shed, capped exponential
// backoff with jitter on transient failures, and hedging inside each
// attempt. Returns the raw JSON reply of the first success.
func (c *Coordinator) queryShard(ctx context.Context, ordinal int, path string, body []byte) ([]byte, error) {
	order := c.replicaOrder(ordinal)
	if len(order) == 0 {
		c.unavailable.Add(1)
		return nil, &ShardError{Ordinal: ordinal, Err: errors.New("no usable replicas (all rejected)")}
	}
	backoff := c.opts.BackoffBase
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep := order[attempt%len(order)]
		var next *replica
		if len(order) > 1 {
			next = order[(attempt+1)%len(order)]
		}
		reply, cl, err := c.raceOnce(ctx, rep, next, path, body)
		switch cl {
		case classOK:
			if rep != order[0] {
				c.failovers.Add(1)
			}
			return reply, nil
		case classPermanent:
			return nil, err
		case classShed:
			lastErr = err
			// No sleep: the replica shed us on purpose; try the next one
			// right away.
		case classTransient:
			lastErr = err
			if attempt == c.opts.MaxAttempts-1 {
				break // no point sleeping before giving up
			}
			// Capped exponential backoff with ±50% jitter, cut short by
			// cancellation.
			jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			select {
			case <-time.After(jittered):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			backoff = min(backoff*2, c.opts.BackoffMax)
		}
	}
	c.unavailable.Add(1)
	return nil, &ShardError{Ordinal: ordinal, Err: lastErr}
}

// scatter fans body out to every shard concurrently. It returns the
// per-shard raw replies, the ordinals that failed after exhausting
// their replicas, and the first permanent error if any shard reported
// one (a permanent error poisons the whole request — the request
// itself is wrong, and serving a "partial" around it would mask a 400
// as a degraded 200).
func (c *Coordinator) scatter(ctx context.Context, path string, body []byte) (replies [][]byte, failed []int, permErr error) {
	n := len(c.shards)
	replies = make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(ordinal int) {
			defer wg.Done()
			replies[ordinal], errs[ordinal] = c.queryShard(ctx, ordinal, path, body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		var ae *api.Error
		if errors.As(err, &ae) && permErr == nil {
			permErr = err
		}
		failed = append(failed, i)
	}
	return replies, failed, permErr
}

// Verify runs the startup identity check: every reachable replica must
// present a shard identity consistent with the manifest (UUID, ordinal,
// shard count, dimensionality). A mismatch is a hard error — a
// miswired endpoint would silently merge wrong-shard results.
// Unreachable replicas are logged and left to the health checker; at
// least one replica per shard must be reachable and verified.
func (c *Coordinator) Verify(ctx context.Context) error {
	var mu sync.Mutex
	var bad []string
	okPerShard := make([]int, len(c.shards))
	var wg sync.WaitGroup
	for _, reps := range c.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				err := c.probe(ctx, rep)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					okPerShard[rep.ordinal]++
				case rep.isRejected():
					bad = append(bad, fmt.Sprintf("shard %d replica %s: %v", rep.ordinal, rep.url, err))
				default:
					slog.Warn("cluster: replica unreachable at startup",
						"shard", rep.ordinal, "url", rep.url, "err", err)
				}
			}(rep)
		}
	}
	wg.Wait()
	if len(bad) > 0 {
		return fmt.Errorf("cluster: miswired endpoints:\n  %s", strings.Join(bad, "\n  "))
	}
	for i, n := range okPerShard {
		if n == 0 {
			return fmt.Errorf("cluster: shard %d has no reachable verified replica", i)
		}
	}
	return nil
}
