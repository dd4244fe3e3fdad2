package cluster_test

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/leakcheck"
	"github.com/hd-index/hdindex/internal/netfault"
)

// slowFastShard builds one shard with two replicas: the preferred one
// behind a netfault proxy injecting latency, the second direct and
// fast. Returns the manifest and the proxy knob.
func slowFastShard(t *testing.T) (*cluster.Manifest, *netfault.Proxy, func()) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) { answer(w, 0, 0.5) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","count":1,"dim":4}`))
	})
	node := httptest.NewServer(mux)
	proxy, err := netfault.Listen(strings.TrimPrefix(node.URL, "http://"))
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	man := stubManifest(4, []string{"http://" + proxy.Addr(), node.URL})
	return man, proxy, func() { proxy.Close(); node.Close() }
}

// runStorm runs n sequential searches and returns the sorted latencies.
func runStorm(t *testing.T, base string, n int) []time.Duration {
	t.Helper()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		code, body := searchOnce(t, base, map[string]any{"k": 1})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

func p99(lats []time.Duration) time.Duration {
	return lats[(len(lats)*99)/100]
}

// TestHedgingCutsTailLatency is the acceptance bar for hedged requests:
// with the preferred replica behind an injected-latency link, hedging
// to the fast replica must cut p99 by at least 2×, the losing request
// must be cancelled without leaking its goroutine, and the win must be
// visible in the coordinator's counters.
func TestHedgingCutsTailLatency(t *testing.T) {
	defer leakcheck.Check(t)()

	man, proxy, closeAll := slowFastShard(t)
	defer closeAll()
	const injected = 120 * time.Millisecond
	proxy.SetRules(netfault.Rules{Latency: injected})

	const n = 15
	mkOpts := func(hedge bool) cluster.Options {
		return cluster.Options{
			HealthInterval: -1,
			DisableHedging: !hedge,
			HedgeDelay:     10 * time.Millisecond,
			// The slow link is latency, not failure: one attempt each.
			MaxAttempts:     1,
			SubQueryTimeout: 5 * time.Second,
		}
	}

	// Baseline: hedging off, every request rides the slow link.
	coordOff, err := cluster.New(man, mkOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	frontOff := httptest.NewServer(coordOff.Handler())
	slow := runStorm(t, frontOff.URL, n)
	frontOff.Close()
	coordOff.Close()

	// Hedged: the same storm, same slow primary, hedge after 10ms.
	coordOn, err := cluster.New(man, mkOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	frontOn := httptest.NewServer(coordOn.Handler())
	fast := runStorm(t, frontOn.URL, n)
	st := coordOn.Stats()
	frontOn.Close()
	coordOn.Close()

	slowP99, fastP99 := p99(slow), p99(fast)
	t.Logf("p99 unhedged %v, hedged %v; hedges fired %d, won %d",
		slowP99, fastP99, st.HedgesFired, st.HedgeWins)
	if slowP99 < injected {
		t.Fatalf("baseline p99 %v below the injected %v — fault injection not effective", slowP99, injected)
	}
	if fastP99*2 > slowP99 {
		t.Fatalf("hedging cut p99 from %v to %v, want >= 2x", slowP99, fastP99)
	}
	if st.HedgesFired == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges fired %d, won %d, want both > 0", st.HedgesFired, st.HedgeWins)
	}
}

// TestAdaptiveHedgeDelay checks the windowed-p99 trigger: cold it sits
// at the conservative maximum, and after real traffic it tracks the
// observed sub-query latency down to the clamp floor. The window runs
// on a fake clock, advanced past its cache TTL instead of slept out.
func TestAdaptiveHedgeDelay(t *testing.T) {
	node := stubNode(t, func(w http.ResponseWriter, r *http.Request) { answer(w, 0, 0.5) })
	opts := cluster.Options{HealthInterval: -1} // hedging on, adaptive delay
	coord, err := cluster.New(stubManifest(4, []string{node.URL, node.URL}), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	cluster.SetClock(coord, func() time.Time { return time.Unix(0, clock.Load()) })
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	cold := coord.Stats().HedgeDelayUS
	if want := float64((200 * time.Millisecond).Microseconds()); cold != want {
		t.Fatalf("cold hedge delay %vus, want the %vus ceiling", cold, want)
	}
	for i := 0; i < 40; i++ {
		if code, body := searchOnce(t, front.URL, map[string]any{"k": 1}); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	// The cached p99 refreshes on a 250ms TTL.
	clock.Add(int64(time.Second))
	warm := coord.Stats().HedgeDelayUS
	if warm >= cold {
		t.Fatalf("hedge delay did not adapt: cold %vus, warm %vus", cold, warm)
	}
	if ceiling := float64((200 * time.Millisecond).Microseconds()); warm >= ceiling/2 {
		t.Fatalf("warm hedge delay %vus, want well under the %vus ceiling after fast traffic", warm, ceiling)
	}
}
