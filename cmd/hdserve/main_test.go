package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/server"
	"github.com/hd-index/hdindex/internal/slo"
)

func flagNames(c config) []string {
	var names []string
	c.flagSet(io.Discard).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) }) // VisitAll is sorted
	return names
}

// The whole command line, per mode. A flag added to one mode (or
// leaking into the other) changes these lists.
func TestFlagSets(t *testing.T) {
	wantServe := []string{
		"addr", "degrade-pressure", "drain-timeout", "frontier", "index", "max-batch",
		"max-inflight", "max-k", "memtable-max", "pool-pages", "pprof", "preset", "query-timeout",
		"readonly", "slo", "slow-query-ms", "tenant-rps", "tiers",
	}
	wantCoord := []string{
		"addr", "cluster-manifest", "coordinator", "drain-timeout", "health-interval",
		"max-batch", "max-k", "query-timeout",
	}
	if got := flagNames(config{}); !reflect.DeepEqual(got, wantServe) {
		t.Errorf("serve flags\n got %v\nwant %v", got, wantServe)
	}
	if got := flagNames(config{coordinator: true}); !reflect.DeepEqual(got, wantCoord) {
		t.Errorf("coordinator flags\n got %v\nwant %v", got, wantCoord)
	}
}

// With only the required flag, every struct is the zero value the
// benchmark and the tests build — the owning packages' defaults apply —
// apart from the flag defaults documented in -h.
func TestZeroArgsYieldZeroConfigs(t *testing.T) {
	c, err := parseFlags([]string{"-index", "idx"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.coordinator || c.indexDir != "idx" || c.addr != ":8080" || c.drainTimeout != 10*time.Second {
		t.Errorf("serve mode: %+v", c)
	}
	if want := (server.Config{QueryTimeout: 2 * time.Second, MaxK: 1000, MaxBatch: 4096}); !reflect.DeepEqual(c.server, want) {
		t.Errorf("server.Config %+v, want %+v", c.server, want)
	}
	if want := (hdindex.Options{}); c.index != want {
		t.Errorf("hdindex.Options %+v, want %+v", c.index, want)
	}
	if !reflect.DeepEqual(c.cluster, cluster.Options{}) {
		t.Errorf("serve mode bound a coordinator option: %+v", c.cluster)
	}

	c, err = parseFlags([]string{"-coordinator", "-cluster-manifest", "m.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.coordinator || c.manifestPath != "m.json" || c.addr != ":8080" || c.drainTimeout != 10*time.Second {
		t.Errorf("coordinator mode: %+v", c)
	}
	if want := (cluster.Options{SubQueryTimeout: 2 * time.Second, MaxK: 1000, MaxBatch: 4096}); c.cluster != want {
		t.Errorf("cluster.Options %+v, want %+v", c.cluster, want)
	}
	if !reflect.DeepEqual(c.server, server.Config{}) {
		t.Errorf("coordinator mode bound a server option: %+v", c.server)
	}
}

func TestFlagsBindIntoTheirStructs(t *testing.T) {
	c, err := parseFlags(strings.Fields("-index idx -memtable-max 16 -pool-pages 4096 -slow-query-ms 50 "+
		"-max-inflight 8 -tenant-rps 2.5 -degrade-pressure 0.5 -preset fast -readonly -query-timeout 0"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.index.MemtableMaxVectors != 16 || c.index.PoolPages != 4096 {
		t.Errorf("hdindex.Options %+v", c.index)
	}
	s := c.server
	if s.SlowQueryThreshold != 50*time.Millisecond || s.DefaultPreset != hdindex.PresetFast || !s.ReadOnly || s.QueryTimeout != 0 ||
		s.Admission.MaxInflight != 8 || s.Admission.TenantRPS != 2.5 || s.Admission.DegradePressure != 0.5 {
		t.Errorf("server.Config %+v", s)
	}

	c, err = parseFlags(strings.Fields("-coordinator -cluster-manifest m.json -health-interval 100ms -query-timeout 0 -max-k 7"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := (cluster.Options{HealthInterval: 100 * time.Millisecond, MaxK: 7, MaxBatch: 4096}); c.cluster != want {
		t.Errorf("cluster.Options %+v, want %+v", c.cluster, want)
	}
}

// The coordinator's -query-timeout feeds cluster.Options.SubQueryTimeout,
// where 0 means the 5s default, not "no deadline" as on a shard server:
// the usage string must say so.
func TestCoordinatorQueryTimeoutUsage(t *testing.T) {
	serve := config{}
	if u := serve.flagSet(io.Discard).Lookup("query-timeout").Usage; !strings.Contains(u, "0 = none") {
		t.Errorf("serve -query-timeout usage %q should promise 0 = none", u)
	}
	coord := config{coordinator: true}
	u := coord.flagSet(io.Discard).Lookup("query-timeout").Usage
	if strings.Contains(u, "none") || !strings.Contains(u, "0 = 5s") {
		t.Errorf("coordinator -query-timeout usage %q must say 0 = 5s, not none", u)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the report on stderr
	}{
		{"", "-index is required"},
		{"-coordinator", "-coordinator requires -cluster-manifest"},
		{"-index idx -slo recall>=0.9", "-slo requires -frontier"},
		{"-index idx -preset bogus", `invalid value "bogus" for flag -preset`},
		{"-index idx -pool-pages -1", "-pool-pages must be >= 0, got -1"},
		{"-index idx -tiers /nonexistent/tiers.json", "flag -tiers"},
		// A flag of the other mode is the flag package's own error.
		{"-index idx -health-interval 1s", "flag provided but not defined: -health-interval"},
		{"-index idx -cluster-manifest m.json", "flag provided but not defined: -cluster-manifest"},
		{"-coordinator -cluster-manifest m.json -max-inflight 4", "flag provided but not defined: -max-inflight"},
		{"-coordinator -cluster-manifest m.json -index idx", "flag provided but not defined: -index"},
		// Cut with their knobs: they are constants now.
		{"-index idx -parallel=false", "flag provided but not defined: -parallel"},
		{"-coordinator -cluster-manifest m.json -retries 2", "flag provided but not defined: -retries"},
	} {
		var stderr strings.Builder
		_, err := parseFlags(strings.Fields(tc.args), &stderr)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
		} else if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}

	// The two file-backed quality flags, against a real frontier file.
	path := filepath.Join(t.TempDir(), "frontier.json")
	frontier := &slo.Frontier{FormatVersion: slo.FrontierFormatVersion, Dataset: "t", K: 10,
		Points: []slo.Point{{Alpha: 64, Gamma: 16, MeanQueryUS: 100, P99QueryUS: 300, Recall: 0.9, MAP: 0.9}}}
	if err := slo.WriteFrontier(path, frontier); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	if _, err := parseFlags([]string{"-index", "idx", "-frontier", path}, &stderr); err == nil ||
		!strings.Contains(stderr.String(), "-frontier only applies with -slo") {
		t.Errorf("-frontier without -slo: err %v, stderr %q", err, stderr.String())
	}
	c, err := parseFlags([]string{"-index", "idx", "-frontier", path, "-slo", "recall>=0.9"}, io.Discard)
	if err != nil || c.server.SLO == nil || c.server.SLO.String() != "recall>=0.9" || len(c.server.Frontier.Points) != 1 {
		t.Errorf("-slo with -frontier: err %v, server.Config %+v", err, c.server)
	}

	if _, err := parseFlags([]string{"-coordinator", "-h"}, io.Discard); err != flag.ErrHelp {
		t.Errorf("-h: err %v, want flag.ErrHelp", err)
	}
}
