// Package crash kill-injects hdserve: it starts the real server binary,
// storms /insert, SIGKILLs the process at a randomized offset, reopens
// the index, and proves that no acknowledged write was lost and that
// recovery answers queries exactly like a server that never crashed.
//
// The suite is the local counterpart of the crash-recovery CI job. It
// needs the go toolchain on PATH (to build hdserve once per run) and a
// loopback listener. Rounds are controlled by HD_CRASH_ROUNDS (default
// 3); failing rounds leave their index directory behind — under
// HD_CRASH_DIR when set, else under the system temp dir — and print
// its path so CI can upload it as an artifact.
package crash

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/data"
)

var serverBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "hdcrash-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(tmp, "hdserve")
	build := exec.Command("go", "build", "-o", serverBin, "github.com/hd-index/hdindex/cmd/hdserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building hdserve: %v\n", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

func rounds() int {
	if s := os.Getenv("HD_CRASH_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// freePort reserves a loopback port long enough to hand it to the
// subprocess. The tiny close-to-bind race is acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServer launches hdserve over dir and waits until /healthz
// answers. extraArgs tune WAL/memtable behaviour per round.
func startServer(t *testing.T, dir string, extraArgs ...string) *serverProc {
	t.Helper()
	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-index", dir, "-addr", addr}, extraArgs...)
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

func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = p.cmd.Wait()
	p.log.Close()
}

// insertVec POSTs one vector; on 200 it returns the acknowledged id.
func insertVec(base string, vec []float32) (uint64, bool) {
	body, _ := json.Marshal(map[string]any{"vector": vec})
	resp, err := http.Post(base+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var out struct {
		ID uint64 `json:"id"`
	}
	if json.NewDecoder(resp.Body).Decode(&out) != nil {
		return 0, false
	}
	return out.ID, true
}

// stormVector derives a distinct, deterministic vector for storm insert
// i: far enough apart that each is its own exact nearest neighbour.
func stormVector(dim, i int) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32(i%97)/97 + 0.001*float32(d) + 10 // offset away from the base data
	}
	v[0] += float32(i) // unique first coordinate
	return v
}

// buildBase writes the 500-vector base index. With byteValued its
// components are integers in [0,255], so the clustered base of
// vectors.pg is stored as byte records; the storm's non-integer inserts
// go to the float32 tail behind it.
func buildBase(t *testing.T, dir string, memtableMax int, byteValued bool) *data.Dataset {
	t.Helper()
	cfg := data.Config{Name: "crash", N: 500, Dim: 16, Clusters: 4, Lo: 0, Hi: 1, Seed: 7}
	if byteValued {
		cfg.Hi, cfg.Integer = 255, true
	}
	ds := data.Generate(cfg)
	// Alpha >= n keeps queries exact, so "is this exact vector present"
	// is decidable by a k=1 search.
	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{
		Tau: 2, Omega: 8, M: 3, Alpha: 512, Beta: 512, Gamma: 512, Seed: 8,
		MemtableMaxVectors: memtableMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if format := idx.Info().Shards[0].Records; strings.Contains(format, "byte records") != byteValued {
		t.Fatalf("base stored as %q", format)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// verifyAcked opens the crashed directory and proves every acknowledged
// insert survived: its exact vector is found at distance ~0 under its
// acknowledged id.
func verifyAcked(t *testing.T, dir string, acked map[uint64][]float32) {
	t.Helper()
	idx, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatalf("index did not open clean after SIGKILL: %v", err)
	}
	defer idx.Close()
	var maxID uint64
	for id := range acked {
		if id > maxID {
			maxID = id
		}
	}
	if len(acked) > 0 && idx.Count() < maxID+1 {
		t.Fatalf("recovered count %d < max acked id %d + 1", idx.Count(), maxID)
	}
	// The built α (512) is exhaustive only for the 500 base vectors, and
	// every storm vector clamps to the same Hilbert key (they lie outside
	// the base data's quantiser domain): once compactions have moved more
	// than α of them into the trees, the built cascade cannot reach the
	// later ones. Widen it to the recovered count so the k=1 search stays
	// the exact presence test it is meant to be.
	n := int(idx.Count())
	exact := []hdindex.QueryOption{hdindex.WithAlpha(n), hdindex.WithGamma(n)}
	for id, vec := range acked {
		resp, err := idx.Query(context.Background(), vec, 1, exact...)
		if err != nil {
			t.Fatalf("search for acked id %d: %v", id, err)
		}
		res := resp.Results
		if len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-4 {
			t.Fatalf("acknowledged insert id %d lost after crash: got %+v", id, res)
		}
	}
	requireChecks(t, idx)
}

// requireChecks runs the index fsck (`hdtool check`) on a recovered
// index: surviving the kill means more than answering — every tree must
// still hold every vector once, under the key and reference distances of
// the vector its slot points at.
func requireChecks(t *testing.T, idx *hdindex.Index) {
	t.Helper()
	if _, err := idx.Check(context.Background()); err != nil {
		t.Fatalf("recovered index fails its consistency check: %v", err)
	}
}

// keepOnFailure registers dir for preservation: on test failure the
// directory survives with its server.log so CI can upload it.
func keepOnFailure(t *testing.T, dir string) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("crash artifacts preserved at %s", dir)
			return
		}
		os.RemoveAll(dir)
	})
}

// artifactDir creates a round's index directory under the shared
// hdcrash root (a stable location CI can glob for artifacts; override
// it with HD_CRASH_DIR).
func artifactDir(t *testing.T, name string) string {
	t.Helper()
	root := os.Getenv("HD_CRASH_DIR")
	if root == "" {
		root = filepath.Join(os.TempDir(), "hdcrash")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		t.Fatal(err)
	}
	keepOnFailure(t, dir)
	return dir
}

// Concurrent insert storm, SIGKILL at a randomized offset, recover,
// assert no acknowledged write lost and the index consistent. Rounds
// cycle through three bases: float-valued with a large memtable; the
// same with a tiny memtable, so compactions fire mid-storm and some
// kills land mid-compaction; and byte-valued (byte records) with a tiny
// memtable, so the kill lands beside a byte base and a float32 tail that
// compactions keep appending to.
func TestKillInjectionConcurrentStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-injection; skipped in -short")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < rounds(); round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := artifactDir(t, fmt.Sprintf("storm-%d", round))
			memtableMax := 1 << 20
			args := []string{}
			if round%3 > 0 {
				memtableMax = 16
				args = append(args, "-memtable-max", "16")
			}
			buildBase(t, dir, memtableMax, round%3 == 2)
			srv := startServer(t, dir, args...)

			var mu sync.Mutex
			acked := make(map[uint64][]float32)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; ; i += 4 {
						select {
						case <-stop:
							return
						default:
						}
						vec := stormVector(16, i)
						if id, ok := insertVec(srv.base, vec); ok {
							mu.Lock()
							acked[id] = vec
							mu.Unlock()
						} else {
							return // server is gone
						}
					}
				}(w)
			}

			// Kill at a randomized offset into the storm.
			time.Sleep(time.Duration(20+rng.Intn(300)) * time.Millisecond)
			srv.kill()
			close(stop)
			wg.Wait()

			t.Logf("round %d: %d acknowledged inserts before SIGKILL", round, len(acked))
			verifyAcked(t, dir, acked)
		})
	}
}

// Serial storm: inserts one at a time, so the id→vector history is
// total and recovery can be compared bit-for-bit against a never-
// crashed index given the same writes.
func TestKillInjectionSerialBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-injection; skipped in -short")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	dir := artifactDir(t, "serial")
	ds := buildBase(t, dir, 1<<20, false)
	srv := startServer(t, dir)

	history := make([][]float32, 0, 4096) // history[j] = vector acked with id 500+j
	stop := time.Now().Add(time.Duration(50+rng.Intn(250)) * time.Millisecond)
	for i := 0; time.Now().Before(stop); i++ {
		vec := stormVector(16, i)
		id, ok := insertVec(srv.base, vec)
		if !ok {
			break
		}
		if id != uint64(500+len(history)) {
			t.Fatalf("non-sequential id %d at serial insert %d", id, len(history))
		}
		history = append(history, vec)
	}
	srv.kill()
	t.Logf("%d acknowledged serial inserts before SIGKILL", len(history))

	crashed, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatalf("index did not open clean after SIGKILL: %v", err)
	}
	defer crashed.Close()
	if crashed.Count() < uint64(500+len(history)) {
		t.Fatalf("recovered count %d lost acknowledged writes (want >= %d)",
			crashed.Count(), 500+len(history))
	}
	requireChecks(t, crashed)

	// Replay exactly the acknowledged writes into a reference index that
	// never crashed, then require bit-identical answers.
	refDir := artifactDir(t, "serial-ref")
	buildBase(t, refDir, 1<<20, false)
	ref, err := hdindex.Open(refDir, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, vec := range history {
		if _, err := ref.Insert(vec); err != nil {
			t.Fatal(err)
		}
	}

	queries := ds.PerturbedQueries(10, 0.05, 9)
	queries = append(queries, stormVector(16, 0), stormVector(16, 3))
	for qi, q := range queries {
		respA, err := crashed.Query(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		respB, err := ref.Query(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		a, b := respA.Results, respB.Results
		// The crashed server may hold one extra write: the in-flight
		// insert whose ack was lost. Its id is 500+len(history) — ignore
		// results differing only by that trailing, unacknowledged id.
		inflight := uint64(500 + len(history))
		ai, bi := 0, 0
		for ai < len(a) && bi < len(b) {
			if a[ai].ID == inflight {
				ai++
				continue
			}
			if a[ai].ID != b[bi].ID || math.Float64bits(a[ai].Dist) != math.Float64bits(b[bi].Dist) {
				t.Fatalf("query %d: recovered %+v != reference %+v", qi, a[ai], b[bi])
			}
			ai++
			bi++
		}
	}
}
