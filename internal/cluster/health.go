package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hd-index/hdindex/internal/api"
)

// Replica health states. A replica starts healthy (optimistic: the
// coordinator serves from a cold start instead of waiting a probe
// round) and moves on probe and sub-query outcomes: one failure makes
// it suspect, downThreshold consecutive failures make it down, one
// success makes it healthy again. Down is a routing hint, not a
// verdict — a shard whose every replica is down still gets attempts.
const (
	stateHealthy int32 = iota
	stateSuspect
	stateDown
)

// downThreshold is the consecutive-failure count that demotes a
// suspect replica to down.
const downThreshold = 3

// probeTimeout caps one /healthz probe.
const probeTimeout = 2 * time.Second

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// replica is one endpoint of one shard, with its health bookkeeping.
// All fields past the identity line are atomics: sub-queries and the
// health prober update them concurrently.
type replica struct {
	url     string
	ordinal int // shard this replica must hold
	pos     int // position in the manifest's replica list

	state    atomic.Int32
	fails    atomic.Int32
	verified atomic.Bool // identity confirmed at least once
	rejected atomic.Bool // identity mismatch: permanently excluded
	lastErr  atomic.Pointer[string]
}

// noteFailure records a failed probe or sub-query attempt.
func (r *replica) noteFailure(msg string) {
	n := r.fails.Add(1)
	if n >= downThreshold {
		r.state.Store(stateDown)
	} else {
		r.state.Store(stateSuspect)
	}
	r.lastErr.Store(&msg)
}

// noteSuccess records a successful probe or sub-query.
func (r *replica) noteSuccess() {
	r.fails.Store(0)
	r.state.Store(stateHealthy)
}

// reject permanently excludes the replica: its identity contradicts
// the manifest, so routing to it would merge wrong-shard results.
// Rejection survives recovery on purpose — rewiring a cluster means
// editing the manifest and restarting the coordinator, not waiting for
// a probe to change its mind.
func (r *replica) reject(msg string) {
	r.rejected.Store(true)
	r.lastErr.Store(&msg)
}

func (r *replica) getState() int32  { return r.state.Load() }
func (r *replica) isRejected() bool { return r.rejected.Load() }

func (r *replica) stats() ReplicaStats {
	rs := ReplicaStats{
		URL:      r.url,
		State:    stateName(r.state.Load()),
		Fails:    r.fails.Load(),
		Verified: r.verified.Load(),
		Rejected: r.rejected.Load(),
	}
	if r.rejected.Load() {
		rs.State = "rejected"
	}
	if msg := r.lastErr.Load(); msg != nil {
		rs.LastErr = *msg
	}
	return rs
}

// probe checks one replica's /healthz: reachability drives the health
// state machine, and the reply's identity facts are verified against
// the manifest — every probe, not just the first, so an endpoint
// restarted onto the wrong data directory is caught at the next round.
func (c *Coordinator) probe(ctx context.Context, rep *replica) error {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		rep.noteFailure(err.Error())
		return err
	}
	defer resp.Body.Close()
	var hz api.Healthz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hz); err != nil {
		err = fmt.Errorf("decode /healthz: %w", err)
		rep.noteFailure(err.Error())
		return err
	}
	if err := c.checkIdentity(rep, &hz); err != nil {
		if !rep.isRejected() {
			slog.Error("cluster: replica rejected (identity mismatch)",
				"shard", rep.ordinal, "url", rep.url, "err", err)
		}
		rep.reject(err.Error())
		return err
	}
	rep.verified.Store(true)
	// Any well-formed reply counts as alive — an "overloaded" 503 from
	// the admission layer means the server is up and shedding, and the
	// per-request shed classification already handles routing around it.
	wasDown := rep.getState() == stateDown
	rep.noteSuccess()
	if wasDown {
		slog.Info("cluster: replica recovered", "shard", rep.ordinal, "url", rep.url)
	}
	return nil
}

// checkIdentity verifies a /healthz reply against the manifest's
// expectations for this replica's slot.
func (c *Coordinator) checkIdentity(rep *replica, hz *api.Healthz) error {
	if hz.Dim != 0 && hz.Dim != c.man.Dim {
		return fmt.Errorf("serves dimensionality %d, manifest declares %d", hz.Dim, c.man.Dim)
	}
	id := hz.Identity
	if id == nil {
		// No stamp at all. With a manifest UUID the operator asked for
		// verification, so an unstampable endpoint (standalone index,
		// pre-identity build) cannot be trusted to be the right shard.
		if c.man.UUID != "" {
			return fmt.Errorf("presents no shard identity, manifest expects cluster %s shard %d", c.man.UUID, rep.ordinal)
		}
		return nil
	}
	if c.man.UUID != "" && id.ClusterUUID != c.man.UUID {
		return fmt.Errorf("belongs to cluster %s, manifest expects %s", id.ClusterUUID, c.man.UUID)
	}
	if id.Shard != rep.ordinal {
		return fmt.Errorf("holds shard %d, manifest slot expects shard %d", id.Shard, rep.ordinal)
	}
	if id.Shards != len(c.shards) {
		return fmt.Errorf("built as 1 of %d shards, manifest declares %d", id.Shards, len(c.shards))
	}
	if id.Dim != c.man.Dim {
		return fmt.Errorf("identity declares dimensionality %d, manifest declares %d", id.Dim, c.man.Dim)
	}
	return nil
}

// healthLoop probes every non-rejected replica each HealthInterval
// until Close.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	ticker := time.NewTicker(c.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.healthStop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopWatch := make(chan struct{})
		go func() {
			select {
			case <-c.healthStop:
				cancel()
			case <-stopWatch:
			}
		}()
		var wg sync.WaitGroup
		for _, reps := range c.shards {
			for _, rep := range reps {
				if rep.isRejected() {
					continue
				}
				wg.Add(1)
				go func(rep *replica) {
					defer wg.Done()
					before := rep.getState()
					_ = c.probe(ctx, rep)
					if after := rep.getState(); after != before && after == stateDown {
						slog.Warn("cluster: replica down",
							"shard", rep.ordinal, "url", rep.url, "err", rep.stats().LastErr)
					}
				}(rep)
			}
		}
		wg.Wait()
		close(stopWatch)
		cancel()
	}
}
