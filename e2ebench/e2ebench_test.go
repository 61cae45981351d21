package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
	"hydra/internal/hw"
	"hydra/internal/model"
	"hydra/internal/serve"
)

// Tiny variants of the three workloads for smoke runs.
var (
	tinyResnet = fheSpec{
		name: "tiny-resnet-closed", logN: 10, levels: 6, fleetCards: 2, grantCards: 1,
		tenants: 1, closedClients: 2, setups: 1, warmup: 1, build: resnetProgram,
	}
	tinyBSGS = fheSpec{
		name: "tiny-bsgs-open", logN: 10, levels: 3, fleetCards: 4, grantCards: 4,
		tenants: 3, rate: 40, setups: 1, warmup: 1, build: bsgsProgram,
	}
	tinyTable2 = table2Spec{
		name: "tiny-table2", nets: func() []model.Network { return []model.Network{model.ResNet18()} }, setups: 1,
	}
)

func TestSameSeedSameInputs(t *testing.T) {
	a := arrivalSchedule(7, openRate, 30*time.Second, 16)
	b := arrivalSchedule(7, openRate, 30*time.Second, 16)
	if len(a) < 100 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, arrivalSchedule(8, openRate, 30*time.Second, 16)) {
		t.Fatal("different seeds gave the same schedule")
	}
	tenants := map[int]bool{}
	for _, x := range a {
		tenants[x.Tenant] = true
	}
	if len(tenants) < 8 {
		t.Fatalf("tenant draw hit only %d of 16 models", len(tenants))
	}
	if !reflect.DeepEqual(jobInput(7, 3, 64), jobInput(7, 3, 64)) || reflect.DeepEqual(jobInput(7, 3, 64), jobInput(7, 4, 64)) {
		t.Fatal("job inputs are not a function of (seed, job)")
	}
	if !reflect.DeepEqual(modelWeights(7, 2, 64), modelWeights(7, 2, 64)) || reflect.DeepEqual(modelWeights(7, 2, 64), modelWeights(7, 5, 64)) {
		t.Fatal("tenant weights are not a function of (seed, tenant)")
	}
}

// newTinyRunner sets up a tiny FHE workload behind a live server.
func newTinyRunner(t *testing.T, spec fheSpec) *fheRunner {
	t.Helper()
	srcs, err := sourcePrograms(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := setupFHE(spec, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Fleet:   hw.Fleet{Cards: spec.fleetCards, CardsPerServer: spec.fleetCards},
		Backend: &serve.ClusterBackend{Params: env.params, Eval: env.eval},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &fheRunner{env: env, srv: srv, seed: 1}
}

func TestVerifierRejectsOnePerturbedSlot(t *testing.T) {
	fr := newTinyRunner(t, tinyBSGS)
	encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, 3)
	for _, perturb := range []bool{false, true} {
		rec, err := fr.prepare(1, 1, 0, encr)
		if err != nil {
			t.Fatal(err)
		}
		if perturb {
			rec.want[5] += 1e-3
		}
		fr.submit(rec, false)
		if perturb && rec.err == nil {
			t.Fatalf("verifier accepted a result with slot 5 off by 1e-3 (slot error %.3g)", rec.slotErr)
		}
		if !perturb && rec.err != nil {
			t.Fatalf("verifier rejected a correct result: %v", rec.err)
		}
	}
}

// TestVerifierRejectsMiscompiledProgram serves a compiled program whose
// output drops the last giant-step add. The oracle interprets the source
// program, so the result must be rejected; interpreting the compiled
// program would accept it.
func TestVerifierRejectsMiscompiledProgram(t *testing.T) {
	fr := newTinyRunner(t, tinyBSGS)
	good := fr.env.progs[0]
	out := good.Output // rescale(add(acc, rotated giant step))
	if out.Op != fhir.OpRescale || out.Args[0].Op != fhir.OpAdd {
		t.Fatalf("compiled program does not end in rescale(add):\n%s", good)
	}
	dropped := *out
	dropped.Args = []*fhir.Value{out.Args[0].Args[0]}
	bad := *good
	bad.Values = append([]*fhir.Value(nil), good.Values...)
	for i, v := range bad.Values {
		if v == out {
			bad.Values[i] = &dropped
		}
	}
	bad.Output = &dropped
	encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, 3)
	for _, p := range []*fhir.Program{good, &bad} {
		fr.env.progs[0] = p
		rec, err := fr.prepare(1, 1, 0, encr)
		if err != nil {
			t.Fatal(err)
		}
		fr.submit(rec, false)
		if p == good && rec.err != nil {
			t.Fatalf("verifier rejected the correctly compiled program: %v", rec.err)
		}
		if p == &bad && rec.err == nil {
			t.Fatalf("verifier accepted a program missing a giant step (slot error %.3g)", rec.slotErr)
		}
	}
}

func TestTable2CheckRejectsOneChangedCell(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	measured := []string{"FAB-S", "Poseidon", "FAB-M", "Hydra-S", "Hydra-M", "Hydra-L"}
	if n, err := g.check(g.text, measured); n != 0 || err != nil {
		t.Fatalf("golden text against itself: %d failed, %v", n, err)
	}
	changed := strings.Replace(g.text, "5.38 |       5.60", "5.39 |       5.60", 1)
	if n, err := g.check(changed, measured); n != 1 || err == nil {
		t.Fatalf("one changed cell: %d failed, %v", n, err)
	}
	if n, _ := g.check(strings.Replace(g.text, "Table II:", "Table 2:", 1), measured); n != 1 {
		t.Fatalf("changed title: %d failed, want 1", n)
	}

	g.cells["Hydra-M"]["ResNet-18"] = "5.39 |       5.60"
	id := 0
	reg := setupTable2(tinyTable2).regenerateTraced(g, &id)
	var bad []string
	for _, c := range reg.cells {
		if c.err != nil {
			bad = append(bad, c.proto+"/"+c.net)
		}
	}
	if !reflect.DeepEqual(bad, []string{"Hydra-M/ResNet-18"}) || reg.failed != 1 {
		t.Fatalf("traced cells flagged %v, want only Hydra-M/ResNet-18", bad)
	}
}

func TestGoldenTable2Parses(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.cells) != 10 || g.cells["Hydra-L"]["OPT-6.7B"] != "286.73 |     321.58" {
		t.Fatalf("golden parsed as %d rows, Hydra-L/OPT-6.7B %q", len(g.cells), g.cells["Hydra-L"]["OPT-6.7B"])
	}
}

// smoke runs a workload with tracing on and checks the outcome, the metric
// set and the trace file.
func smoke(t *testing.T, name string, run func(runConfig) (*outcome, error)) {
	t.Helper()
	rc := runConfig{seed: 1, seconds: 1, trace: true, root: "..", out: t.TempDir()}
	res, err := run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("outcome: correct %v, %d of %d failed", res.correct, res.failed, res.attempted)
	}
	_, endToEnd, perLayer := benchmarkJSON(t)
	checkDeclared(t, "end-to-end", res.endToEnd, endToEnd)
	checkDeclared(t, "per-layer", res.perLayer, perLayer)
	for n, m := range res.endToEnd {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(rc.out, "trace-"+name+"-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	roots := map[int]chromeEvent{}
	for _, e := range trace.TraceEvents {
		if _, ok := parentOf[e.Name]; !ok {
			roots[e.Tid] = e
		}
	}
	for _, e := range trace.TraceEvents {
		r := roots[e.Tid]
		if e.Ph != "X" || e.Ts < r.Ts || e.Ts+e.Dur > r.Ts+r.Dur+1e-3 {
			t.Fatalf("span %+v lies outside its job span %+v", e, r)
		}
	}
}

func TestSmokeResnetClosed(t *testing.T) {
	smoke(t, tinyResnet.name, func(rc runConfig) (*outcome, error) { return runFHE(tinyResnet, rc) })
}

func TestSmokeBSGSOpen(t *testing.T) {
	smoke(t, tinyBSGS.name, func(rc runConfig) (*outcome, error) { return runFHE(tinyBSGS, rc) })
}

func TestSmokeTable2(t *testing.T) {
	smoke(t, tinyTable2.name, func(rc runConfig) (*outcome, error) { return runTable2(tinyTable2, rc) })
}

// endToEndNames is every end-to-end metric, in the order of BENCHMARK.json.
var endToEndNames = []string{
	"latency_p50_ms", "latency_p90_ms", "throughput_jobs_per_s", "setup_s", "peak_rss_mb",
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name, Unit string
}

// benchmarkJSON reads the benchmark's definition at the repository root.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// checkDeclared fails unless got holds exactly the declared metrics, each
// with its declared unit.
func checkDeclared(t *testing.T, kind string, got map[string]metric, declared []declaredMetric) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(got), len(declared))
	}
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v (present %v), declared unit %q", kind, d.Name, m, ok, d.Unit)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	workloads, endToEnd, perLayer := benchmarkJSON(t)
	names := func(ds []declaredMetric) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}
	if got := names(endToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEndNames)
	}
	if got := names(perLayer); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, perLayerNames)
	}
	if !reflect.DeepEqual(sortedCopy(workloads), workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, workloadNames())
	}
	for _, d := range perLayer {
		if u := unitOf(d.Name); u != d.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, code %q", d.Name, d.Unit, u)
		}
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
