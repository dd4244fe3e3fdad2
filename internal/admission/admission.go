// Package admission is the server's overload-control layer: a weighted
// concurrency limiter with a deadline-aware FIFO queue, per-tenant
// token buckets, and a pressure signal that drives adaptive
// degradation.
//
// The design follows the classic admission-control split:
//
//   - A weighted semaphore caps in-flight work (a batch of q queries
//     weighs q, a single search weighs 1), so the downstream index sees
//     bounded concurrency no matter how many clients connect.
//   - Requests that do not fit wait in a bounded FIFO queue — but only
//     if their remaining deadline budget can plausibly cover the wait.
//     A request that would time out in the queue is shed immediately
//     (error code "overloaded", with a Retry-After hint) instead of
//     burning a queue slot to die in; that keeps shed latency in the
//     microseconds and the queue full of requests that will succeed.
//   - Per-tenant token buckets (header X-Tenant; missing header = the
//     shared "default" pool) bound each tenant's accepted request rate
//     so one abusive client cannot starve the pool (error code
//     "tenant_throttled").
//   - Pressure = queued work × the p99 of recent accepted-request
//     latency — an estimate, in seconds, of how long the queue tail
//     will take to drain. Above a configured threshold the server
//     runs requests that left α and γ unset at the "fast" cascade
//     preset. Pressure crossings are latched for a
//     short hold (requests queueing or shedding under pressure arm
//     it), so degradation covers the burst instead of flickering with
//     instantaneous queue depth.
//
// A nil *Controller is valid and admits everything — the layer
// disappears when unconfigured.
package admission

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hd-index/hdindex/internal/telemetry"
)

// Error codes carried to clients in the structured error body.
const (
	CodeOverloaded      = "overloaded"       // queue full / deadline cannot cover queue wait → 503
	CodeTenantThrottled = "tenant_throttled" // per-tenant rate exceeded → 429
)

// Error is a shed/throttle decision. RetryAfter is the controller's
// estimate of when retrying could succeed (clients see it as a
// Retry-After header, rounded up to whole seconds).
type Error struct {
	Code       string
	RetryAfter time.Duration
	reason     string
}

func (e *Error) Error() string {
	return fmt.Sprintf("admission: %s: %s", e.Code, e.reason)
}

// Config tunes the controller. Zero fields disable their mechanism:
// MaxInflight <= 0 disables concurrency limiting and queueing,
// TenantRPS <= 0 disables per-tenant buckets, DegradePressure <= 0
// disables adaptive degradation.
type Config struct {
	// MaxInflight caps the total weight of concurrently admitted work.
	MaxInflight int
	// MaxQueue caps the total weight waiting for admission. Default:
	// 4 × MaxInflight.
	MaxQueue int
	// TenantRPS is each tenant's sustained accepted-request rate.
	TenantRPS float64
	// TenantBurst is the bucket depth. Default: max(2 × TenantRPS, 1).
	TenantBurst float64
	// DegradePressure is the pressure (seconds of estimated queue
	// drain time) above which ShouldDegrade turns on. Crossings latch
	// for degradeHold so degradation covers the burst.
	DegradePressure float64
	// TenantPolicy, when set, resolves a tenant to its tier's shares of
	// the budget above (the serving layer reads them from the tier
	// config). It is consulted once per tenant, on first sight.
	TenantPolicy func(tenant string) TenantShares
}

// TenantShares scales the controller's base budget for one tenant; the
// controller does the arithmetic, so the defaults it fills in (queue
// depth, burst) have no second copy. Zero fields inherit the base.
type TenantShares struct {
	// RPS and Burst scale TenantRPS and TenantBurst.
	RPS, Burst float64
	// MaxInflight caps the tenant's in-flight plus queued weight at this
	// fraction of the controller's whole capacity (MaxInflight +
	// MaxQueue), at least 1; a request that would exceed it is shed
	// instantly with "tenant_throttled". This is the tier isolation
	// lever: a batch tier at a small cap cannot fill the shared queue.
	MaxInflight float64
}

// Stats is a point-in-time view of the controller for /stats, /metrics
// and /healthz.
type Stats struct {
	Accepted     uint64  `json:"accepted"`
	ShedOverload uint64  `json:"shed_overload"`
	ShedTenant   uint64  `json:"shed_tenant"`
	ShedDeadline uint64  `json:"shed_deadline"` // subset of sheds caused by insufficient deadline budget
	Inflight     int     `json:"inflight"`
	Queued       int     `json:"queued"`
	MaxInflight  int     `json:"max_inflight"`
	MaxQueue     int     `json:"max_queue"`
	Pressure     float64 `json:"pressure"`
	P99Millis    float64 `json:"p99_ms"`
	Degraded     bool    `json:"degraded"`
	// Tenants breaks admission out per tenant: the top
	// tenantStatsTopN by accepted count, with everything else
	// aggregated into one "other" row so the block (and the /metrics
	// labels derived from it) stays bounded however many tenant ids
	// clients invent.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's row of the admission stats.
type TenantStats struct {
	Tenant       string  `json:"tenant"`
	Accepted     uint64  `json:"accepted"`
	ShedOverload uint64  `json:"shed_overload"`
	ShedTenant   uint64  `json:"shed_tenant"`
	Load         int     `json:"load"` // in-flight + queued weight
	MaxInflight  int     `json:"max_inflight,omitempty"`
	RPS          float64 `json:"rps,omitempty"`
}

// tenantStatsTopN bounds the per-tenant stats cardinality.
const tenantStatsTopN = 8

// OtherTenant is the aggregate row name for tenants beyond the top N.
const OtherTenant = "other"

type waiter struct {
	weight int
	ready  chan struct{}
}

// tenantState is everything the controller tracks per tenant: the
// token bucket (base rate/burst scaled by the TenantPolicy's shares),
// the in-flight+queued load against the tenant's cap, and the
// per-tenant outcome counters behind Stats.Tenants.
type tenantState struct {
	rps     float64
	burst   float64
	maxLoad int // 0 = uncapped

	mu     sync.Mutex
	tokens float64
	last   time.Time

	load         atomic.Int64
	accepted     atomic.Uint64
	shedOverload atomic.Uint64
	shedTenant   atomic.Uint64
}

// addLoad reserves weight against the tenant's load cap; false means
// the cap is hit and the request must be shed.
func (ts *tenantState) addLoad(weight int) bool {
	for {
		cur := ts.load.Load()
		if ts.maxLoad > 0 && cur+int64(weight) > int64(ts.maxLoad) {
			return false
		}
		if ts.load.CompareAndSwap(cur, cur+int64(weight)) {
			return true
		}
	}
}

func (ts *tenantState) subLoad(weight int) {
	if ts != nil {
		ts.load.Add(int64(-weight))
	}
}

// Controller implements admission control. Construct with New; a nil
// Controller admits everything.
type Controller struct {
	cfg Config           // MaxQueue and TenantBurst hold their resolved defaults
	now func() time.Time // test seam

	mu       sync.Mutex
	inflight int
	queued   int
	waiters  []*waiter

	tmu     sync.Mutex
	tenants map[string]*tenantState

	// lat is the accepted-request latency feed (Observe) and the
	// windowed p99 derived from it.
	lat *telemetry.WindowedP99

	accepted     atomic.Uint64
	shedOverload atomic.Uint64
	shedTenant   atomic.Uint64
	shedDeadline atomic.Uint64

	// degradeUntil (unixnano) holds ShouldDegrade on after pressure was
	// seen at enqueue time: sustained overload is visible when requests
	// queue or shed, not at the random instants callers sample, and the
	// hold keeps degradation from flapping between those instants.
	degradeUntil atomic.Int64
}

const (
	// degradeHold is how long ShouldDegrade stays on after a request
	// queued (or shed) under pressure — hysteresis so degradation covers
	// the burst instead of flickering with instantaneous queue depth.
	degradeHold = time.Second
)

// New builds a Controller. Returns nil (admit-everything) when the
// config enables no mechanism.
func New(cfg Config) *Controller {
	if cfg.MaxInflight <= 0 && cfg.TenantRPS <= 0 && cfg.TenantPolicy == nil {
		return nil
	}
	c := &Controller{cfg: cfg, now: time.Now}
	// Through c.now, not a copy of it: tests swap the clock after New.
	c.lat = telemetry.NewWindowedP99(func() time.Time { return c.now() })
	if cfg.MaxInflight <= 0 {
		c.cfg.MaxQueue = 0 // nothing queues without a limiter
	} else if cfg.MaxQueue <= 0 {
		c.cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.TenantRPS > 0 && cfg.TenantBurst <= 0 {
		c.cfg.TenantBurst = max(2*cfg.TenantRPS, 1)
	}
	if cfg.TenantRPS > 0 || cfg.TenantPolicy != nil {
		c.tenants = make(map[string]*tenantState)
	}
	return c
}

// tenantFor returns (creating on first sight) the tenant's state; nil
// when no per-tenant mechanism is configured.
func (c *Controller) tenantFor(tenant string) *tenantState {
	if c.tenants == nil {
		return nil
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	ts := c.tenants[tenant]
	if ts == nil {
		ts = &tenantState{rps: c.cfg.TenantRPS, burst: c.cfg.TenantBurst, last: c.now()}
		if c.cfg.TenantPolicy != nil {
			sh := c.cfg.TenantPolicy(tenant)
			if sh.RPS > 0 {
				ts.rps *= sh.RPS
			}
			if sh.Burst > 0 {
				ts.burst *= sh.Burst
			}
			if capacity := c.cfg.MaxInflight + c.cfg.MaxQueue; sh.MaxInflight > 0 && capacity > 0 {
				ts.maxLoad = max(int(float64(capacity)*sh.MaxInflight), 1)
			}
		}
		ts.tokens = ts.burst
		c.tenants[tenant] = ts
	}
	return ts
}

// Acquire admits weight units of work for tenant, blocking in the
// admission queue when the limiter is saturated. On success the
// returned release function MUST be called exactly once when the work
// finishes. On shed it returns a *Error (code "overloaded" or
// "tenant_throttled"); shed decisions are made without blocking.
func (c *Controller) Acquire(ctx context.Context, tenant string, weight int) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	ts := c.tenantFor(tenant)

	if ts != nil && ts.rps > 0 {
		if wait, ok := c.takeToken(ts); !ok {
			c.shedTenant.Add(1)
			ts.shedTenant.Add(1)
			return nil, &Error{
				Code:       CodeTenantThrottled,
				RetryAfter: wait,
				reason:     fmt.Sprintf("tenant %q over %.3g req/s", tenant, ts.rps),
			}
		}
	}
	// A request heavier than the whole limiter (a huge batch) must
	// still be admittable: clamp its weight to the capacity so it can
	// run — alone — rather than queueing forever.
	if c.cfg.MaxInflight > 0 && weight > c.cfg.MaxInflight {
		weight = c.cfg.MaxInflight
	}
	// The tier load cap: a tenant already at its in-flight+queued
	// budget sheds instantly instead of eating shared queue slots.
	if ts != nil && !ts.addLoad(weight) {
		c.shedTenant.Add(1)
		ts.shedTenant.Add(1)
		return nil, &Error{
			Code:       CodeTenantThrottled,
			RetryAfter: c.estimateWait(weight),
			reason:     fmt.Sprintf("tenant %q over in-flight cap %d", tenant, ts.maxLoad),
		}
	}

	if c.cfg.MaxInflight <= 0 {
		c.accepted.Add(1)
		if ts != nil {
			ts.accepted.Add(1)
		}
		return func() { ts.subLoad(weight) }, nil
	}

	c.mu.Lock()
	if len(c.waiters) == 0 && c.inflight+weight <= c.cfg.MaxInflight {
		c.inflight += weight
		c.mu.Unlock()
		c.accepted.Add(1)
		if ts != nil {
			ts.accepted.Add(1)
		}
		return func() { c.release(weight); ts.subLoad(weight) }, nil
	}

	// Must queue. Shed instead if the queue is full, or if the
	// request's remaining deadline budget cannot cover the estimated
	// queue wait — it would only time out in line.
	estWait := c.estimateWaitLocked(weight)
	// Pressure is visible here, at enqueue time: whether this request
	// ends up queued or shed, the queue it found is real. Arm the
	// degrade hold so ShouldDegrade reflects the burst rather than the
	// instantaneous queue depth its callers happen to sample.
	if c.cfg.DegradePressure > 0 {
		if drain := float64(c.queued+weight) / float64(c.cfg.MaxInflight) * c.lat.P99NS() / 1e9; drain >= c.cfg.DegradePressure {
			c.armDegrade()
		}
	}
	if c.queued+weight > c.cfg.MaxQueue {
		c.mu.Unlock()
		c.shedOverload.Add(1)
		if ts != nil {
			ts.shedOverload.Add(1)
		}
		ts.subLoad(weight)
		return nil, &Error{
			Code:       CodeOverloaded,
			RetryAfter: max(estWait, 50*time.Millisecond),
			reason:     "admission queue full",
		}
	}
	if dl, ok := ctx.Deadline(); ok && estWait > 0 {
		if remaining := dl.Sub(c.now()); remaining < estWait {
			c.mu.Unlock()
			c.shedOverload.Add(1)
			c.shedDeadline.Add(1)
			if ts != nil {
				ts.shedOverload.Add(1)
			}
			ts.subLoad(weight)
			return nil, &Error{
				Code:       CodeOverloaded,
				RetryAfter: estWait,
				reason:     fmt.Sprintf("deadline budget %v < estimated queue wait %v", remaining.Round(time.Millisecond), estWait.Round(time.Millisecond)),
			}
		}
	}

	w := &waiter{weight: weight, ready: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.queued += weight
	c.mu.Unlock()

	select {
	case <-w.ready:
		c.accepted.Add(1)
		if ts != nil {
			ts.accepted.Add(1)
		}
		return func() { c.release(weight); ts.subLoad(weight) }, nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: hand the
			// capacity straight back.
			c.inflight -= weight
			c.grantLocked()
			c.mu.Unlock()
		default:
			if i := slices.Index(c.waiters, w); i >= 0 {
				c.waiters = slices.Delete(c.waiters, i, i+1)
			}
			c.queued -= weight
			c.mu.Unlock()
		}
		c.shedOverload.Add(1)
		c.shedDeadline.Add(1)
		if ts != nil {
			ts.shedOverload.Add(1)
		}
		ts.subLoad(weight)
		return nil, &Error{
			Code:       CodeOverloaded,
			RetryAfter: c.estimateWait(weight),
			reason:     "deadline expired in admission queue",
		}
	}
}

func (c *Controller) release(weight int) {
	c.mu.Lock()
	c.inflight -= weight
	c.grantLocked()
	c.mu.Unlock()
}

// grantLocked admits queued waiters in FIFO order while they fit.
func (c *Controller) grantLocked() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		if c.inflight+w.weight > c.cfg.MaxInflight {
			return
		}
		c.waiters = c.waiters[1:]
		c.queued -= w.weight
		c.inflight += w.weight
		close(w.ready)
	}
}

// estimateWaitLocked predicts the queue wait for a request of the
// given weight: the work ahead of it (everything in flight plus
// everything queued), expressed in p99-latency units of limiter
// capacity. With no latency data yet the estimate is zero — the
// deadline shed stays conservative until Observe has fed it.
func (c *Controller) estimateWaitLocked(weight int) time.Duration {
	ahead := c.inflight + c.queued + weight
	rounds := float64(ahead) / float64(c.cfg.MaxInflight)
	return time.Duration(rounds * c.lat.P99NS())
}

func (c *Controller) estimateWait(weight int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimateWaitLocked(weight)
}

// Observe feeds one accepted request's total latency into the pressure
// estimator. Call it for accepted requests only — shed requests would
// drag the p99 toward zero and mask the overload.
func (c *Controller) Observe(d time.Duration) {
	if c == nil {
		return
	}
	c.lat.ObserveDuration(d)
}

// Pressure is the queue-drain estimate in seconds: queued weight × the
// windowed p99, divided by limiter capacity. Zero when nothing queues.
func (c *Controller) Pressure() float64 {
	if c == nil || c.cfg.MaxInflight <= 0 {
		return 0
	}
	c.mu.Lock()
	queued := c.queued
	c.mu.Unlock()
	if queued == 0 {
		return 0
	}
	return float64(queued) / float64(c.cfg.MaxInflight) * c.lat.P99NS() / 1e9
}

// armDegrade extends the degrade hold to degradeHold from now.
func (c *Controller) armDegrade() {
	until := c.now().Add(degradeHold).UnixNano()
	for {
		cur := c.degradeUntil.Load()
		if cur >= until || c.degradeUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// ShouldDegrade reports whether the server should resolve unset
// per-query knobs to the cheap cascade preset right now: pressure is
// over the threshold, or was within the last degradeHold (requests
// queued or shed under pressure arm the hold — see Acquire).
func (c *Controller) ShouldDegrade() bool {
	if c == nil || c.cfg.DegradePressure <= 0 {
		return false
	}
	if c.now().UnixNano() < c.degradeUntil.Load() {
		return true
	}
	return c.Pressure() >= c.cfg.DegradePressure
}

// Overloaded reports sustained saturation (the /healthz "overloaded"
// state): the queue is at least 90% full, or pressure is at twice the
// degrade threshold.
func (c *Controller) Overloaded() bool {
	if c == nil {
		return false
	}
	if c.cfg.MaxQueue > 0 {
		c.mu.Lock()
		queued := c.queued
		c.mu.Unlock()
		if queued*10 >= c.cfg.MaxQueue*9 {
			return true
		}
	}
	if c.cfg.DegradePressure > 0 && c.Pressure() >= 2*c.cfg.DegradePressure {
		return true
	}
	return false
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	inflight, queued := c.inflight, c.queued
	c.mu.Unlock()
	return Stats{
		Accepted:     c.accepted.Load(),
		ShedOverload: c.shedOverload.Load(),
		ShedTenant:   c.shedTenant.Load(),
		ShedDeadline: c.shedDeadline.Load(),
		Inflight:     inflight,
		Queued:       queued,
		MaxInflight:  c.cfg.MaxInflight,
		MaxQueue:     c.cfg.MaxQueue,
		Pressure:     c.Pressure(),
		P99Millis:    c.lat.P99NS() / 1e6,
		Degraded:     c.ShouldDegrade(),
		Tenants:      c.tenantStats(),
	}
}

// tenantStats snapshots the per-tenant rows: the top tenantStatsTopN
// by accepted count, everything else summed into one "other" row, so
// the cardinality of /stats (and the /metrics labels built from it)
// stays bounded no matter how many tenant ids clients send.
func (c *Controller) tenantStats() []TenantStats {
	if c.tenants == nil {
		return nil
	}
	c.tmu.Lock()
	rows := make([]TenantStats, 0, len(c.tenants))
	for name, ts := range c.tenants {
		rows = append(rows, TenantStats{
			Tenant:       name,
			Accepted:     ts.accepted.Load(),
			ShedOverload: ts.shedOverload.Load(),
			ShedTenant:   ts.shedTenant.Load(),
			Load:         int(ts.load.Load()),
			MaxInflight:  ts.maxLoad,
			RPS:          ts.rps,
		})
	}
	c.tmu.Unlock()
	slices.SortFunc(rows, func(a, b TenantStats) int {
		if a.Accepted != b.Accepted {
			if a.Accepted > b.Accepted {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Tenant, b.Tenant)
	})
	if len(rows) <= tenantStatsTopN {
		return rows
	}
	top := rows[:tenantStatsTopN:tenantStatsTopN]
	other := TenantStats{Tenant: OtherTenant}
	for _, r := range rows[tenantStatsTopN:] {
		other.Accepted += r.Accepted
		other.ShedOverload += r.ShedOverload
		other.ShedTenant += r.ShedTenant
		other.Load += r.Load
	}
	return append(top, other)
}

// takeToken takes one token from the tenant's bucket, reporting the
// wait until a token would be available when it cannot.
func (c *Controller) takeToken(ts *tenantState) (wait time.Duration, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	now := c.now()
	ts.tokens = min(ts.tokens+now.Sub(ts.last).Seconds()*ts.rps, ts.burst)
	ts.last = now
	if ts.tokens >= 1 {
		ts.tokens--
		return 0, true
	}
	return time.Duration((1 - ts.tokens) / ts.rps * float64(time.Second)), false
}
