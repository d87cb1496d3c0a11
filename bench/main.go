// Command bench is the repo's benchmark: one in-process pervasive-grid node
// wired as cmd/pgridd wires it, driven by closed-loop handheld clients over
// loopback TCP, measured end to end and, in a separate traced pass, layer by
// layer from outside. See README.md in this directory.
//
// Usage:
//
//	go run ./bench                                  # the five workloads, both passes
//	go run ./bench -workload query_mix -seed 7      # one workload
//	go run ./bench -out a.json ; go run ./bench -out b.json
//	go run ./bench -compare a.json b.json           # exit 1 outside a bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// endToEnd names the end-to-end metrics in report order, with whether a
// larger value is the better one.
var endToEnd = []struct {
	name         string
	higherBetter bool
}{
	{"throughput_rps", true},
	{"p50_us", false},
	{"p99_us", false},
	{"cpu_us_per_op", false},
	{"heap_mb", false},
	{"fail_share", false},
	{"setup_s", false},
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five in turn)")
	seed := flag.Int64("seed", 1, "seed of the request sequence and the registry population")
	seconds := flag.Float64("seconds", 20, "length of the untraced slices: rounds of one second with one client and one second with two")
	mode := flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only, after a half-length untraced part; 2: both")
	out := flag.String("out", "", "also write the results to this file, for -compare")
	outDir := flag.String("dir", filepath.Join("bench", "out"), "directory for trace files and the journal")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if the second is worse than a bound of BENCHMARK.json allows")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *mode < traceOff || *mode > traceBoth || flag.NArg() != 0 {
		fatal("usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1|2] [-out file]")
	}

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		selected = []*workload{w}
	}
	var results []*result
	correct := true
	for _, w := range selected {
		res, err := run{w, *seed, *seconds, *mode, *outDir}.measure()
		if err != nil {
			fatal("%v", err)
		}
		printResult(res)
		results = append(results, res)
		correct = correct && res.correct()
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	if len(results) == 1 {
		printContractLine(results[0], *mode)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints every metric by name with its unit, and the sample
// count beside each percentile and median.
func printResult(r *result) {
	fmt.Printf("== %s  seed=%d  attempted=%d  failed=%d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.name]; ok {
			fmt.Printf("  %-32s %14.4f %-6s", m.name, v.Value, v.Unit)
			if n, ok := r.Samples[m.name]; ok {
				fmt.Printf(" (n=%d)", n)
			}
			fmt.Println()
		}
	}
	for _, l := range perLayer {
		if v, ok := r.PerLayer[l.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", l.name, v.Value, v.Unit)
		}
	}
	if r.PerLayer != nil {
		fmt.Printf("  traced operations: %d, trace file: %s\n", r.Samples["traced_ops"], r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Printf("  first error, %s\n", e)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// printContractLine prints the one-object summary a driver reads off the
// last line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one. fail_share is left to attempted and failed,
// since a driver's metrics must never read 0.
func printContractLine(r *result, mode int) {
	metrics := map[string]metric{}
	if mode == traceOnly {
		metrics = r.PerLayer
	} else {
		for k, v := range r.EndToEnd {
			if k != "fail_share" {
				metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

// compareFiles prints, per workload and end-to-end metric, both values,
// their relative difference and the bound, and reports whether every
// metric of b stays within its bound of a. fail_share has no bound: it
// must not rise.
func compareFiles(a, b, benchmarkJSON string) (bool, error) {
	load := func(path string) (map[string]*result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := map[string]*result{}
		for _, r := range rs {
			m[r.Workload] = r
		}
		return m, nil
	}
	ra, err := load(a)
	if err != nil {
		return false, err
	}
	rb, err := load(b)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	var names []string
	for name := range ra {
		if rb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok := true
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", a, b, "diff", "bound")
	for _, name := range names {
		for _, m := range endToEnd {
			va, vb := ra[name].EndToEnd[m.name].Value, rb[name].EndToEnd[m.name].Value
			worse := vb - va
			if m.higherBetter {
				worse = va - vb
			}
			verdict := ""
			if va != 0 {
				worse /= va
			}
			if worse > bounds[m.name] {
				verdict, ok = "  WORSE", false
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				name, m.name, va, vb, relDiff(va, vb)*100, bounds[m.name]*100, verdict)
		}
	}
	return ok, nil
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
