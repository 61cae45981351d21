package conformance

import (
	"flag"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_matrix.json from this run")

// TestConformanceMatrix runs the whole corpus against all five engines,
// fails on any cell outside its program's budget, and compares the pass
// matrix against the checked-in golden file. Under -short the Heavy programs
// (bootstrap) are skipped — that reduced matrix is what the CI -race leg
// runs — and the golden comparison tolerates the skips.
func TestConformanceMatrix(t *testing.T) {
	h, err := NewHarness(filepath.Join("testdata", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if len(h.Programs) < 25 {
		t.Errorf("corpus has %d programs, want >= 25", len(h.Programs))
	}

	m, err := h.Run(RunOptions{Short: testing.Short(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Failures() {
		t.Errorf("conformance failure: %s", f)
	}

	golden := filepath.Join("testdata", "golden_matrix.json")
	if *update {
		if testing.Short() {
			t.Fatal("refusing to -update the golden matrix from a -short (reduced) run")
		}
		if t.Failed() {
			t.Fatal("refusing to -update the golden matrix from a failing run")
		}
		if err := WriteGolden(golden, m); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden matrix rewritten: %s", golden)
		return
	}
	g, err := LoadGolden(golden)
	if err != nil {
		t.Fatalf("loading golden matrix (run with -update to create): %v", err)
	}
	for _, v := range CompareGolden(m, g) {
		t.Errorf("golden matrix regression: %s", v)
	}
}

// TestInterpreterSelfConsistency spot-checks the plaintext interpreter
// against hand-computed slots, so matrix failures can be trusted to implicate
// an engine rather than the oracle.
func TestInterpreterSelfConsistency(t *testing.T) {
	spec := &ProgramSpec{
		Name:   "unit",
		Params: ParamSpec{LogN: 5, Levels: 3},
		Inputs: []InputSpec{{Name: "x", Gen: "ramp"}},
		Ops: []OpSpec{
			{Op: "rotate", Dst: "r", A: "x", K: 3},
			{Op: "mulconst", Dst: "m", A: "r", Const: 2},
			{Op: "addconst", Dst: "y", A: "m", Const: 0.5},
		},
		Output: "y",
		Budget: 1,
	}
	got, err := Interpret(spec)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := GenVector("ramp", spec.Slots())
	for j := range got {
		want := x[(j+3)%spec.Slots()]*2 + 0.5
		if e := real(got[j] - want); e > 1e-12 || e < -1e-12 {
			t.Fatalf("slot %d: got %v want %v", j, got[j], want)
		}
	}
}
