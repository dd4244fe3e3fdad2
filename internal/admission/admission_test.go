package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	release, err := c.Acquire(context.Background(), "anyone", 99)
	if err != nil {
		t.Fatalf("nil controller shed: %v", err)
	}
	release()
	c.Observe(time.Millisecond)
	if c.ShouldDegrade() || c.Overloaded() || c.Pressure() != 0 {
		t.Fatal("nil controller must report quiet state")
	}
}

func TestNewDisabledConfig(t *testing.T) {
	if c := New(Config{}); c != nil {
		t.Fatal("all-zero config should build a nil controller")
	}
}

func TestLimiterCapsInflight(t *testing.T) {
	c := New(Config{MaxInflight: 4, MaxQueue: 64})
	ctx := context.Background()

	var inflight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := c.Acquire(ctx, "", 1)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			cur := inflight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 4 {
		t.Fatalf("saw %d concurrent holders, cap is 4", m)
	}
	if got := c.Stats().Accepted; got != 64 {
		t.Fatalf("accepted %d, want 64", got)
	}
}

func TestWeightedAcquire(t *testing.T) {
	c := New(Config{MaxInflight: 4})
	ctx := context.Background()

	r1, err := c.Acquire(ctx, "", 3)
	if err != nil {
		t.Fatalf("weight-3: %v", err)
	}
	// Weight 2 does not fit next to 3; it must queue until r1 releases.
	done := make(chan struct{})
	go func() {
		r2, err := c.Acquire(ctx, "", 2)
		if err != nil {
			t.Errorf("weight-2: %v", err)
		} else {
			r2()
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("weight-2 acquire should have queued behind weight-3")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("queued waiter never granted after release")
	}
}

func TestOversizedWeightClampsToCapacity(t *testing.T) {
	c := New(Config{MaxInflight: 4})
	release, err := c.Acquire(context.Background(), "", 1000)
	if err != nil {
		t.Fatalf("oversized weight must clamp and admit: %v", err)
	}
	release()
}

func TestQueueFullSheds(t *testing.T) {
	c := New(Config{MaxInflight: 1, MaxQueue: 1})
	ctx := context.Background()
	r1, err := c.Acquire(ctx, "", 1)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	defer r1()

	queued := make(chan struct{})
	go func() {
		close(queued)
		r, err := c.Acquire(ctx, "", 1) // fills the queue
		if err == nil {
			defer r()
		}
	}()
	<-queued
	// Wait until the goroutine is actually in the queue.
	deadline := time.Now().Add(time.Second)
	for c.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = c.Acquire(ctx, "", 1)
	shedIn := time.Since(start)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeOverloaded {
		t.Fatalf("got %v, want overloaded shed", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("shed must carry a RetryAfter hint, got %v", ae.RetryAfter)
	}
	if shedIn > 50*time.Millisecond {
		t.Fatalf("shed took %v, must be immediate (< 50ms)", shedIn)
	}
	if s := c.Stats(); s.ShedOverload != 1 {
		t.Fatalf("shed_overload = %d, want 1", s.ShedOverload)
	}
}

func TestDeadlineAwareShed(t *testing.T) {
	c := New(Config{MaxInflight: 1, MaxQueue: 100})
	// Teach the estimator that requests take ~100ms.
	for i := 0; i < 100; i++ {
		c.Observe(100 * time.Millisecond)
	}
	ctx := context.Background()
	r1, err := c.Acquire(ctx, "", 1)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	defer r1()

	// 1ms of remaining budget cannot cover an estimated ~200ms queue
	// wait (two requests ahead at p99 ≈ 100ms): shed immediately.
	dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Acquire(dctx, "", 1)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeOverloaded {
		t.Fatalf("got %v, want overloaded shed", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("deadline shed took %v, must not wait in queue", d)
	}
	if s := c.Stats(); s.ShedDeadline != 1 {
		t.Fatalf("shed_deadline = %d, want 1", s.ShedDeadline)
	}

	// A generous deadline queues instead of shedding.
	gctx, gcancel := context.WithTimeout(ctx, 5*time.Second)
	defer gcancel()
	done := make(chan error, 1)
	go func() {
		r, err := c.Acquire(gctx, "", 1)
		if err == nil {
			r()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("generous deadline should queue, got immediate %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	r1()
	if err := <-done; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

func TestCancelledWaiterLeavesQueue(t *testing.T) {
	c := New(Config{MaxInflight: 1})
	ctx := context.Background()
	r1, err := c.Acquire(ctx, "", 1)
	if err != nil {
		t.Fatalf("first: %v", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(cctx, "", 1)
		errc <- err
	}()
	deadline := time.Now().Add(time.Second)
	for c.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err = <-errc
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeOverloaded {
		t.Fatalf("cancelled waiter: got %v, want overloaded shed", err)
	}
	if s := c.Stats(); s.Queued != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", s.Queued)
	}
	r1()
	// Capacity must be intact: next acquire succeeds instantly.
	r2, err := c.Acquire(ctx, "", 1)
	if err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	r2()
}

func TestTenantThrottling(t *testing.T) {
	c := New(Config{TenantRPS: 5, TenantBurst: 2})
	ctx := context.Background()

	for i := 0; i < 2; i++ { // burst passes
		release, err := c.Acquire(ctx, "mallory", 1)
		if err != nil {
			t.Fatalf("burst req %d: %v", i, err)
		}
		release()
	}
	_, err := c.Acquire(ctx, "mallory", 1)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeTenantThrottled {
		t.Fatalf("got %v, want tenant_throttled", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("throttle must carry RetryAfter, got %v", ae.RetryAfter)
	}

	// Other tenants are unaffected.
	release, err := c.Acquire(ctx, "alice", 1)
	if err != nil {
		t.Fatalf("alice throttled by mallory's bucket: %v", err)
	}
	release()
	if s := c.Stats(); s.ShedTenant != 1 {
		t.Fatalf("shed_tenant = %d, want 1", s.ShedTenant)
	}
}

func TestTenantBucketRefills(t *testing.T) {
	c := New(Config{TenantRPS: 1000, TenantBurst: 1})
	ctx := context.Background()
	if _, err := c.Acquire(ctx, "t", 1); err != nil {
		t.Fatalf("first: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := c.Acquire(ctx, "t", 1); err == nil {
			return // refilled
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled at 1000 rps")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPressureAndDegrade(t *testing.T) {
	c := New(Config{MaxInflight: 1, MaxQueue: 100, DegradePressure: 0.05})
	for i := 0; i < 100; i++ {
		c.Observe(100 * time.Millisecond) // p99 ≈ 100ms
	}
	if c.ShouldDegrade() {
		t.Fatal("empty queue must not degrade")
	}

	ctx := context.Background()
	r1, _ := c.Acquire(ctx, "", 1)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ { // 5 queued × 100ms = 0.5s of pressure > 0.05
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Acquire(ctx, "", 1)
			if err == nil {
				r()
			}
		}()
	}
	deadline := time.Now().Add(time.Second)
	for c.Stats().Queued < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters queued", c.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	if p := c.Pressure(); p < 0.05 {
		t.Fatalf("pressure = %v with 5×100ms queued, want >= 0.05", p)
	}
	if !c.ShouldDegrade() {
		t.Fatal("pressure above threshold must degrade")
	}
	r1()
	wg.Wait()
}

// TestDegradeHold: pressure seen at enqueue time (here: a deadline
// shed that found a saturated limiter) arms ShouldDegrade for
// degradeHold, even though the instantaneous queue is empty again by
// the time anyone samples it.
func TestDegradeHold(t *testing.T) {
	c := New(Config{MaxInflight: 1, MaxQueue: 4, DegradePressure: 0.05})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	for i := 0; i < 100; i++ {
		c.Observe(100 * time.Millisecond) // p99 ≈ 100ms → drain estimate 100ms > 50ms threshold
	}

	release, err := c.Acquire(context.Background(), "", 1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(time.Millisecond))
	defer cancel()
	if _, err := c.Acquire(ctx, "", 1); err == nil {
		t.Fatal("1ms budget against a ~200ms queue wait must shed")
	}
	release()

	if !c.ShouldDegrade() {
		t.Fatal("a request shed under pressure must arm the degrade hold")
	}
	now = now.Add(degradeHold + time.Millisecond)
	if c.ShouldDegrade() {
		t.Fatal("the degrade hold must expire once pressure is gone")
	}
}

func TestStatsShape(t *testing.T) {
	c := New(Config{MaxInflight: 8, TenantRPS: 100, DegradePressure: 1})
	release, err := c.Acquire(context.Background(), "t", 2)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	s := c.Stats()
	if s.Inflight != 2 || s.MaxInflight != 8 || s.MaxQueue != 32 {
		t.Fatalf("stats = %+v", s)
	}
	release()
	if s := c.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after release", s.Inflight)
	}
}

func TestTenantPolicyBudgets(t *testing.T) {
	c := New(Config{
		TenantRPS:   100,
		TenantBurst: 10,
		TenantPolicy: func(tenant string) TenantShares {
			switch tenant {
			case "batch":
				return TenantShares{RPS: 0.05, Burst: 0.1} // 5 req/s, burst 1
			case "premium":
				return TenantShares{RPS: 10, Burst: 10} // 1000 req/s, burst 100
			}
			return TenantShares{} // inherit base
		},
	})
	ctx := context.Background()

	// batch burns its burst of 1 instantly; the base burst of 10 must
	// not apply.
	if _, err := c.Acquire(ctx, "batch", 1); err != nil {
		t.Fatalf("batch first: %v", err)
	}
	_, err := c.Acquire(ctx, "batch", 1)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeTenantThrottled {
		t.Fatalf("batch over budget got %v, want tenant_throttled", err)
	}

	// premium rides its 100-deep bucket far past the base burst.
	for i := 0; i < 50; i++ {
		release, err := c.Acquire(ctx, "premium", 1)
		if err != nil {
			t.Fatalf("premium req %d: %v", i, err)
		}
		release()
	}

	// unlisted tenants inherit the base burst of 10.
	for i := 0; i < 10; i++ {
		if _, err := c.Acquire(ctx, "anon", 1); err != nil {
			t.Fatalf("anon burst req %d: %v", i, err)
		}
	}
	if _, err := c.Acquire(ctx, "anon", 1); !errors.As(err, &ae) || ae.Code != CodeTenantThrottled {
		t.Fatalf("anon over base burst got %v", err)
	}
}

func TestTenantInflightCap(t *testing.T) {
	c := New(Config{
		MaxInflight: 10,
		TenantPolicy: func(tenant string) TenantShares {
			if tenant == "capped" {
				return TenantShares{MaxInflight: 0.04} // 2 of the 10 + 40 capacity
			}
			return TenantShares{}
		},
	})
	ctx := context.Background()

	r1, err := c.Acquire(ctx, "capped", 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Acquire(ctx, "capped", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Third concurrent request exceeds the tenant cap — shed instantly
	// even though the shared limiter has room.
	_, err = c.Acquire(ctx, "capped", 1)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeTenantThrottled {
		t.Fatalf("over cap got %v, want tenant_throttled", err)
	}
	// Other tenants still fit.
	r3, err := c.Acquire(ctx, "free", 1)
	if err != nil {
		t.Fatalf("free tenant blocked: %v", err)
	}
	r3()
	// Released capacity comes back.
	r1()
	r4, err := c.Acquire(ctx, "capped", 1)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r4()
	r2()

	s := c.Stats()
	var capped *TenantStats
	for i := range s.Tenants {
		if s.Tenants[i].Tenant == "capped" {
			capped = &s.Tenants[i]
		}
	}
	if capped == nil {
		t.Fatalf("no capped row in %+v", s.Tenants)
	}
	if capped.Accepted != 3 || capped.ShedTenant != 1 || capped.Load != 0 || capped.MaxInflight != 2 {
		t.Fatalf("capped row %+v", *capped)
	}
}

func TestTenantStatsBoundedCardinality(t *testing.T) {
	c := New(Config{TenantRPS: 1000})
	ctx := context.Background()
	// "hot" accepted twice so it outranks the long tail.
	for i := 0; i < 2; i++ {
		release, err := c.Acquire(ctx, "hot", 1)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	for i := 0; i < 20; i++ {
		release, err := c.Acquire(ctx, fmt.Sprintf("tenant-%02d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	s := c.Stats()
	if len(s.Tenants) != tenantStatsTopN+1 {
		t.Fatalf("got %d tenant rows, want %d", len(s.Tenants), tenantStatsTopN+1)
	}
	if s.Tenants[0].Tenant != "hot" || s.Tenants[0].Accepted != 2 {
		t.Fatalf("top row %+v, want hot/2", s.Tenants[0])
	}
	last := s.Tenants[len(s.Tenants)-1]
	if last.Tenant != OtherTenant {
		t.Fatalf("last row %q, want %q", last.Tenant, OtherTenant)
	}
	var total uint64
	for _, r := range s.Tenants {
		total += r.Accepted
	}
	if total != 22 {
		t.Fatalf("rows account for %d accepted, want 22", total)
	}
}
