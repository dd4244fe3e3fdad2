package crash

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/shard"
)

// copyDir clones a built shard directory so a second server can serve
// the same shard as an independent replica (own files, own WAL).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// startServerAt is startServer pinned to a chosen address, so a killed
// replica can be restarted where the cluster manifest expects it. The
// log appends across incarnations.
func startServerAt(t *testing.T, dir, addr string, extraArgs ...string) *serverProc {
	t.Helper()
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", addr}, extraArgs...)
	if !slices.Contains(extraArgs, "-coordinator") {
		// A coordinator serves no index (its flag set has no -index);
		// dir only holds its log.
		args = append(args, "-index", dir)
	}
	cmd := exec.Command(serverBin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			t.Fatalf("server on %s never became healthy", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// coordStatus fetches the coordinator's /healthz status field.
func coordStatus(base string) string {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
	}
	if json.NewDecoder(resp.Body).Decode(&hz) != nil {
		return ""
	}
	return hz.Status
}

// clusterSearch POSTs one query; returns the HTTP code and how many
// results came back.
func clusterSearch(base string, q []float32, k int, requireFull bool) (int, int, error) {
	body, _ := json.Marshal(map[string]any{"query": q, "k": k, "require_full": requireFull})
	resp, err := http.Post(base+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, err
	}
	var out struct {
		Results []struct {
			ID uint64 `json:"id"`
		} `json:"results"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return resp.StatusCode, 0, fmt.Errorf("bad body %s: %w", payload, err)
	}
	return resp.StatusCode, len(out.Results), nil
}

// TestClusterReplicaKillStorm is the cluster chaos bar: a 2-shard
// cluster with a replicated shard serves a 4-worker query storm while
// the preferred replica of shard 0 is SIGKILLed mid-storm. The
// coordinator must fail over with ZERO failed queries (require_full
// stays false — the shard still has a live replica, so answers stay
// complete anyway), report the failovers in its stats, and return to
// full health after the replica restarts on the same address.
func TestClusterReplicaKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-injection; skipped in -short")
	}
	root := artifactDir(t, "cluster")

	// One sharded build; replica dirs are clones of the shard dirs.
	ds := data.Generate(data.Config{Name: "chaos", N: 400, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 21})
	buildDir := filepath.Join(root, "build")
	idx, err := hdindex.Build(buildDir, ds.Vectors, hdindex.Options{
		Tau: 2, Omega: 8, M: 3, Alpha: 256, Gamma: 64, Seed: 9, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	shard0 := filepath.Join(buildDir, "shard-00")
	shard1 := filepath.Join(buildDir, "shard-01")
	replica0b := filepath.Join(root, "replica-0b")
	copyDir(t, shard0, replica0b)
	id, err := shard.ReadIdentity(shard0)
	if err != nil || id == nil {
		t.Fatalf("shard identity: %v %v", id, err)
	}

	addrA0 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	addrB0 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	addrS1 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	manPath := filepath.Join(root, "cluster.json")
	err = cluster.WriteManifest(manPath, &cluster.Manifest{
		FormatVersion: cluster.ManifestFormatVersion,
		UUID:          id.ClusterUUID,
		Dim:           16,
		Shards: []cluster.ShardSpec{
			{Ordinal: 0, Replicas: []string{addrA0, addrB0}},
			{Ordinal: 1, Replicas: []string{addrS1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	a0 := startServerAt(t, shard0, addrA0)
	b0 := startServerAt(t, replica0b, addrB0)
	defer b0.kill()
	s1 := startServerAt(t, shard1, addrS1)
	defer s1.kill()

	coordDir := filepath.Join(root, "coord")
	if err := os.MkdirAll(coordDir, 0o755); err != nil {
		t.Fatal(err)
	}
	coord := startServerAt(t, coordDir, fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		"-coordinator", "-cluster-manifest", manPath, "-health-interval", "100ms")
	defer coord.kill()

	// The storm: 4 workers, each blocking at its midpoint until the
	// kill has landed, so at least half the queries run against the
	// degraded cluster. The killer fires once a quarter of the storm
	// has completed — strictly before any worker's midpoint barrier.
	queries := ds.PerturbedQueries(16, 0.01, 33)
	const workers, perWorker = 4, 80
	var done atomic.Int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for done.Load() < workers*perWorker/4 {
			time.Sleep(2 * time.Millisecond)
		}
		a0.kill()
	}()

	var failures atomic.Int64
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					<-killed
				}
				q := queries[(w*perWorker+i)%len(queries)]
				code, n, err := clusterSearch(coord.base, q, 10, false)
				if err != nil || code != http.StatusOK || n != 10 {
					failures.Add(1)
					once.Do(func() {
						t.Errorf("worker %d query %d failed: code=%d results=%d err=%v", w, i, code, n, err)
					})
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	<-killed
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d queries failed across the replica kill, want 0", f, workers*perWorker)
	}

	// The failover must be visible in the coordinator's own telemetry.
	resp, err := http.Get(coord.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Coordinator cluster.Stats `json:"coordinator"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Coordinator.Failovers == 0 {
		t.Fatalf("coordinator reports no failovers after a replica kill: %+v", st.Coordinator)
	}

	// Recovery: restart the killed replica on its manifest address; the
	// health checker must fold it back in and report full health.
	a0 = startServerAt(t, shard0, addrA0)
	defer a0.kill()
	deadline := time.Now().Add(20 * time.Second)
	for coordStatus(coord.base) != "ok" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never returned to ok after replica restart (status %q)", coordStatus(coord.base))
		}
		time.Sleep(50 * time.Millisecond)
	}
	// With every replica back, a require_full query must succeed.
	code, n, err := clusterSearch(coord.base, queries[0], 10, true)
	if err != nil || code != http.StatusOK || n != 10 {
		t.Fatalf("require_full after recovery: code=%d results=%d err=%v", code, n, err)
	}
}
