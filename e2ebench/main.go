// Command e2ebench is the repository's end-to-end benchmark. It drives the
// Hydra stack through its public packages only and prints every metric by
// name with its unit, ending with one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//   - fhe-resnet-closed: a compiled ResNet-style block (dense 4x4 BSGS
//     convolution, degree-3 activation, skip connection) at logN 13 with 6
//     levels, served closed-loop by nproc clients (at most 2) on a 2-card
//     fleet with 1-card grants. Every job shares one model.
//   - fhe-bsgs-open: a compiled dense 4x4 BSGS matrix-vector product at
//     logN 12 with 3 levels on a 4-card grant of a 4-card fleet, submitted
//     by an open-loop generator at a fixed rate (jittered periodic
//     arrivals, timed from when each job was due). Weights come from
//     one of 16 tenant models.
//   - sim-table2: Table II of the paper (6 prototypes x 4 networks) through
//     experiments.Table2, its Format() checked byte for byte against
//     internal/experiments/testdata/table2.golden. Traced blocks run
//     Prototype.Build and sim.Run per cell instead, for the layer split.
//
// Every FHE job is fhir.Compile'd at set-up, submitted to serve.Server with a
// serve.ClusterBackend, lowered by fhir.LowerCluster on every grant, run on
// the cluster, decrypted, and checked against fhir.Interpret of the source
// program on the same inputs.
//
// With --trace 0 the run measures with tracing off and reports the
// end-to-end metrics. With --trace 1 it runs four blocks of a quarter of the
// time each, untraced, traced, traced, untraced, on the same inputs, so the
// order of the blocks does not bias the tracing overhead. It writes the
// traced blocks' spans as Chrome trace-event JSON under --out, prints each
// layer's self time, probes the unit cost of the ckks and ring operations,
// and reports the per-layer metrics together with the tracing overhead.
//
// Usage (from the repository root; run.sh builds and runs this command):
//
//	bash e2ebench/run.sh --workload fhe-bsgs-open --seed 1 --seconds 30 --trace 0
//
// Claims made with this benchmark should be re-checked on a held-out seed
// (heldOutSeed) that was not used while the change was written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed reserved for confirming a claimed gain; tune and
// develop on other seeds.
const heldOutSeed = 9001

// tracedBlocks is the order of the untraced (false) and traced (true)
// blocks of a --trace 1 run.
var tracedBlocks = []bool{false, true, true, false}

// measuredBlocks returns which measured blocks are traced and how long each
// lasts: one untraced block of the whole time, or the tracedBlocks.
func measuredBlocks(rc runConfig) (traced []bool, each time.Duration) {
	dur := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		return []bool{false}, dur
	}
	return tracedBlocks, dur / time.Duration(len(tracedBlocks))
}

// metric is one named, unit-carrying measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]metric
	perLayer  map[string]metric
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root (where internal/ lives)
	out     string // directory for trace files
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"fhe-resnet-closed": func(rc runConfig) (*outcome, error) { return runFHE(resnetClosed, rc) },
	"fhe-bsgs-open":     func(rc runConfig) (*outcome, error) { return runFHE(bsgsOpen, rc) },
	"sim-table2":        func(rc runConfig) (*outcome, error) { return runTable2(table2Full, rc) },
}

func main() {
	name := flag.String("workload", "", "workload to run: fhe-resnet-closed, fhe-bsgs-open or sim-table2")
	seed := flag.Int64("seed", 1, "seed for inputs, tenant weights and arrival times")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	root := flag.String("root", ".", "repository root")
	out := flag.String("out", ".bench_build", "directory for trace output")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, out: *out}
	printProvenance(*name, rc)
	res, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	metrics := res.endToEnd
	if rc.trace {
		fmt.Println("end-to-end metrics of the untraced phase:")
		printMetrics(res.endToEnd)
		fmt.Println("per-layer metrics:")
		metrics = res.perLayer
	}
	printMetrics(metrics)
	if res.attempted > 0 {
		fmt.Printf("error_rate %.6f (%d of %d failed)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes one "name value unit" line per metric, sorted by name.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// provenance identifies the code and machine a result came from.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GitSHA     string  `json:"git_sha"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

func currentProvenance(name string, rc runConfig) provenance {
	return provenance{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		GitSHA: gitSHA(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

func printProvenance(name string, rc runConfig) {
	b, err := json.Marshal(currentProvenance(name, rc))
	if err != nil {
		return
	}
	fmt.Printf("provenance %s\n", b)
}

// gitSHA names the commit under test: the VCS stamp the go command puts in
// the binary, or "unknown" when it was built outside a git checkout.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// ms and us convert durations for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
