package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesTables keeps BENCHMARK.json equal to what the driver
// emits and holds both to the contract's limits.
func TestSpecMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the driver's tables; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed 128 and 16", len(perLayer), len(endToEnd))
	}
}

// tinyRun runs one workload at -scale tiny and checks its output: every
// metric of defs printed exactly once as "name value unit" with a
// finite value, the same values in the closing JSON object, no failed
// operation.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) map[string]float64 {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: seed, seconds: refSeconds, trace: trace, scale: "tiny", workDir: filepath.Join(dir, "work")}
	res, err := run(cfg, filepath.Join(dir, "trace.json"), &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		if fi, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run wrote no trace.json: %v", workload, err)
		}
	}
	if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
		t.Errorf("%s: run left %d entries in its work directory", workload, len(left))
	}

	printed := map[string]int{}
	values := map[string]float64{}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if strings.HasPrefix(last, "#") || strings.HasPrefix(last, "{") || len(f) != 3 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Errorf("%s: metric line %q: %v", workload, last, err)
		}
		printed[f[0]]++
		values[f[0]] = v
	}
	var closing result
	if err := json.Unmarshal([]byte(last), &closing); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if len(closing.Metrics) != len(defs) || len(printed) != len(defs) {
		t.Errorf("%s trace=%v: %d metrics in the result object, %d printed, want %d", workload, trace, len(closing.Metrics), len(printed), len(defs))
	}
	for _, d := range defs {
		m, ok := closing.Metrics[d.Name]
		switch {
		case !ok || printed[d.Name] != 1:
			t.Errorf("%s trace=%v: %s printed %d times, in result object: %v", workload, trace, d.Name, printed[d.Name], ok)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value != values[d.Name] || m.Unit != d.Unit:
			t.Errorf("%s trace=%v: %s = %v %s, printed %v, want a finite value in %s", workload, trace, d.Name, m.Value, m.Unit, values[d.Name], d.Unit)
		case !trace && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", workload, d.Name)
		}
	}
	return values
}

func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			first := tinyRun(t, w.Name, 7, false)
			tinyRun(t, w.Name, 7, true)
			if w.Name != "warm-wide" && w.Name != "cold-refine" {
				return
			}
			// One client, no timers: the counts repeat exactly.
			second := tinyRun(t, w.Name, 7, false)
			for _, m := range []string{"recall_at_10", "map_at_10", "page_reads_per_query", "index_bytes_per_vector"} {
				if first[m] != second[m] {
					t.Errorf("%s: %s differs between two runs of one seed: %v then %v", w.Name, m, first[m], second[m])
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare three runs a side: a metric inside
// its bound is ok, one worse by more than its bound is worse, one whose
// spread exceeds its bound is unresolved.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, p50, recall, reads []float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range p50 {
			rec := record{Workload: "warm-wide", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"query_p50_us":         {p50[i], "us"},
				"recall_at_10":         {recall[i], "ratio"},
				"page_reads_per_query": {reads[i], "count"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 102}, []float64{0.90, 0.91, 0.92}, []float64{10, 20, 30})
	b := write("b.jsonl", []float64{103, 104, 105}, []float64{0.70, 0.71, 0.72}, []float64{10, 20, 30})
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a recall drop beyond the bound was not reported as worse")
	}
	for metric, verdict := range map[string]string{"query_p50_us": "ok", "recall_at_10": "worse", "page_reads_per_query": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
}
