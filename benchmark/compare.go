package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the repeat check measures spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// valuesOf gathers one end-to-end metric of one workload's untraced runs.
func valuesOf(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles judges B against A on every workload x end-to-end
// metric: "worse" when B's median is worse than A's by more than the
// metric's bound, "unresolved" when either side's interquartile spread
// is wider than the bound (so the comparison cannot tell), else "ok".
// It also flags failed operations. It reports whether anything was
// worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	bRecs, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-24s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(bRecs, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, am), ratio(b3-b1, bm)
			worse := ratio(bm-am, am) // share of A's median by which B is worse
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "worse"
				anyWorse = true
			case max(spreadA, spreadB) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.Name, d.Name, am, 100*spreadA, bm, 100*spreadB, 100*worse, 100*d.Bound, verdict)
		}
		for _, side := range []struct {
			name string
			recs []record
		}{{pathA, a}, {pathB, bRecs}} {
			for _, r := range side.recs {
				if r.Workload == wl.Name && (r.Failed > 0 || !r.Correct) {
					fmt.Fprintf(w, "%-14s %s: seed %d trace %v: %d of %d operations failed\n", wl.Name, side.name, r.Seed, r.Trace, r.Failed, r.Attempted)
					anyWorse = true
				}
			}
		}
	}
	return anyWorse, nil
}
