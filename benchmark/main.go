// Command benchmark is the repository's benchmark driver: four
// workloads over a seeded 100K-vector dataset, end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. See
// README.md in this directory; BENCHMARK.json at the repository root
// names the command, the workloads and every metric.
//
//	go run ./benchmark -workload warm-wide -seed 1 -seconds 14 -trace 0
//	go run ./benchmark -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: a result and what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	var cfg config
	var trace int
	var out, traceOut string
	var compare, spec bool
	flag.StringVar(&cfg.workload, "workload", "", "warm-wide | cold-refine | mixed-ingest | cluster-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "every input is derived from it")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "scales the fixed amount of measured work; BENCHMARK.json's run_seconds")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics and trace.json")
	flag.StringVar(&cfg.scale, "scale", "full", "full | tiny (smoke test)")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/work", "scratch directory; the run's subdirectory is removed at exit")
	flag.StringVar(&out, "out", "", "append the result as one JSON line to this file")
	flag.StringVar(&traceOut, "trace-out", ".bench_build/trace.json", "where the traced run writes its spans")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare A.jsonl B.jsonl")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the driver's tables define it")
	flag.Parse()

	if spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -out files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	res, err := run(cfg, traceOut, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := appendRecord(out, record{cfg.workload, cfg.seed, cfg.trace, res}); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes one workload and prints its notes, every metric as
// "name value unit", and the result object as the last line.
func run(cfg config, traceOut string, w io.Writer) (result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return result{}, err
	}
	defer b.cleanup()

	switch cfg.workload {
	case "warm-wide", "cold-refine":
		err = b.runSingle(b.singleSpecs()[cfg.workload])
	case "mixed-ingest":
		err = b.runMixed()
	case "cluster-serve":
		err = b.runCluster()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		b.set("bench.harness_prep_s", b.prep.Seconds())
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return result{}, err
		}
		if err := b.tr.write(traceOut, cfg.workload, cfg.seed); err != nil {
			return result{}, err
		}
		b.note("trace: %d spans written to %s", len(b.tr.spans), traceOut)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue, len(defs))}
	res.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range defs {
		v := b.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}

	fmt.Fprintf(w, "# %s seed %d seconds %d trace %v scale %s (harness prep %.2f s)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, b.prep.Seconds())
	for _, n := range b.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, r := range b.reasons {
		fmt.Fprintln(w, "# FAILED:", r)
	}
	fmt.Fprintf(w, "# operations attempted %d failed %d\n", b.attempted, b.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%s %v %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
