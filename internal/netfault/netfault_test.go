package netfault

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/leakcheck"
)

// backend starts a trivial HTTP server and a proxy in front of it.
func backend(t *testing.T) (*Proxy, func()) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	p, err := Listen(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return p, func() { p.Close(); ts.Close() }
}

// get fetches / through the proxy with the given client timeout.
func get(p *Proxy, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + p.Addr() + "/")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if string(body) != "pong" {
		return errors.New("wrong body " + string(body))
	}
	return nil
}

func TestPassThrough(t *testing.T) {
	defer leakcheck.Check(t)()
	p, done := backend(t)
	defer done()
	if err := get(p, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if p.Conns() == 0 {
		t.Fatal("no connections counted")
	}
}

func TestLatency(t *testing.T) {
	p, done := backend(t)
	defer done()
	const delay = 150 * time.Millisecond
	p.SetRules(Rules{Latency: delay})
	start := time.Now()
	if err := get(p, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("request took %v, want >= %v of injected latency", elapsed, delay)
	}
	// Back to pass-through: the same proxy must be fast again.
	p.SetRules(Rules{})
	start = time.Now()
	if err := get(p, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > delay {
		t.Fatalf("request took %v after clearing rules, want fast", elapsed)
	}
}

func TestBlackholeTimesOut(t *testing.T) {
	p, done := backend(t)
	defer done()
	p.SetRules(Rules{Blackhole: true})
	err := get(p, 300*time.Millisecond)
	if err == nil {
		t.Fatal("request through a blackhole succeeded")
	}
}

func TestResetFailsFast(t *testing.T) {
	p, done := backend(t)
	defer done()
	p.SetRules(Rules{Reset: true})
	start := time.Now()
	err := get(p, 2*time.Second)
	if err == nil {
		t.Fatal("request through a reset link succeeded")
	}
	// A reset is an instant error, unlike a blackhole's timeout.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("reset took %v to surface, want fast failure", elapsed)
	}
}

// TestRulesAffectOpenConnections proves the keep-alive case: a
// connection established under pass-through rules sees faults injected
// later, because rules are consulted per forwarded chunk.
func TestRulesAffectOpenConnections(t *testing.T) {
	p, done := backend(t)
	defer done()
	client := &http.Client{Timeout: 300 * time.Millisecond}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + p.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	p.SetRules(Rules{Blackhole: true})
	// Same client, same (kept-alive) connection: must now hang.
	if _, err := client.Get("http://" + p.Addr() + "/"); err == nil {
		t.Fatal("keep-alive request through a blackhole succeeded")
	}
}

func TestBandwidthThrottle(t *testing.T) {
	// A dedicated backend serving 64 KiB so the throttle has bytes to
	// meter: at 256 KiB/s the transfer must take ~250ms.
	payload := strings.Repeat("x", 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer ts.Close()
	p, err := Listen(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetRules(Rules{BandwidthBPS: 256 << 10})
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	start := time.Now()
	resp, err := client.Get("http://" + p.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) != len(payload) {
		t.Fatalf("read %d bytes, err %v", len(body), err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("64KiB at 256KiB/s took %v, want >= 150ms", elapsed)
	}
}

// A response that fits one chunk still takes its transmission time on a
// fresh connection: the throttle holds a chunk before forwarding it, so
// the last one is not delivered at once with its delay charged to the
// next request. Sleeps never return early, so the lower bound holds on
// any host.
func TestBandwidthThrottleDelaysLastChunk(t *testing.T) {
	payload := strings.Repeat("x", 16<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer ts.Close()
	p, err := Listen(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetRules(Rules{BandwidthBPS: 64 << 10})
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	start := time.Now()
	resp, err := client.Get("http://" + p.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) != len(payload) {
		t.Fatalf("read %d bytes, err %v", len(body), err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("16 KiB at 64 KiB/s took %v, want >= 200ms", elapsed)
	}
}

// TestConcurrentSetRules hammers rule swaps against live traffic —
// run with -race, this is the data-race check.
func TestConcurrentSetRules(t *testing.T) {
	defer leakcheck.Check(t)()
	p, done := backend(t)
	defer done()
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		modes := []Rules{{}, {Latency: time.Millisecond}, {BandwidthBPS: 1 << 20}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				p.SetRules(modes[i%len(modes)])
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var getters sync.WaitGroup
	for i := 0; i < 4; i++ {
		getters.Add(1)
		go func() {
			defer getters.Done()
			for j := 0; j < 20; j++ {
				_ = get(p, 2*time.Second)
			}
		}()
	}
	getters.Wait()
	close(stop)
	swapper.Wait()
}

// TestCloseSeversConnections proves Close unblocks in-flight traffic
// instead of leaking the pipes.
func TestCloseSeversConnections(t *testing.T) {
	defer leakcheck.Check(t)()
	p, done := backend(t)
	defer done()
	p.SetRules(Rules{Blackhole: true})
	errCh := make(chan error, 1)
	go func() { errCh <- get(p, 10*time.Second) }()
	time.Sleep(50 * time.Millisecond)
	p.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blackholed request succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the in-flight request")
	}
	// Dialing a closed proxy fails outright.
	if _, err := net.DialTimeout("tcp", p.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}
