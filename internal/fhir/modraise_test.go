package fhir

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestModRaiseLegalize is the input → expected-error-or-facts table for the
// ModRaise op: Legalize must reject a non-canonical degree, close pending
// rescales, insert the ModSwitch down to level 0, and leave the result at
// the full budget with no pending product.
func TestModRaiseLegalize(t *testing.T) {
	const levels = 4
	cases := []struct {
		name string
		// build returns the value the ModRaise is applied to; a case with
		// prog set constructs its program by hand instead.
		build func(b *Builder, x *Value) *Value
		prog  func() *Program
		// levels overrides the budget when non-zero.
		levels  int
		wantErr string
		// wantSrc and srcLvls give the operand chain under the ModRaise,
		// outermost first: each value's op and level.
		wantSrc []Op
		srcLvls []int
	}{
		{
			name: "degree-2 operand",
			prog: func() *Program {
				x := &Value{ID: 0, Op: OpInput, Name: "x"}
				m := &Value{ID: 1, Op: OpMul, Args: []*Value{x, x}}
				r := &Value{ID: 2, Op: OpModRaise, Args: []*Value{m}}
				return &Program{Slots: 8, Values: []*Value{x, m, r}, Output: r}
			},
			wantErr: "degree 2",
		},
		{
			name:    "fresh input",
			build:   func(b *Builder, x *Value) *Value { return x },
			wantSrc: []Op{OpModSwitch, OpInput},
			srcLvls: []int{0, levels},
		},
		{
			name:    "pending product is rescaled first",
			build:   func(b *Builder, x *Value) *Value { return b.MulConst(x, 0.5) },
			wantSrc: []Op{OpModSwitch, OpRescale, OpMulConst},
			srcLvls: []int{0, levels - 1, levels},
		},
		{
			name:    "operand already at level 0",
			build:   func(b *Builder, x *Value) *Value { return b.MulConst(x, 0.5) },
			levels:  1,
			wantSrc: []Op{OpRescale, OpMulConst},
			srcLvls: []int{0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			budget := levels
			if tc.levels != 0 {
				budget = tc.levels
			}
			var p *Program
			if tc.prog != nil {
				p = tc.prog()
			} else {
				b := NewBuilder(8)
				x := b.Input("x")
				b.Output(b.ModRaise(tc.build(b, x)))
				var err error
				if p, err = b.Build(); err != nil {
					t.Fatal(err)
				}
			}
			lp, err := Legalize(p, LegalizeOptions{Levels: budget})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			out := lp.Output
			if out.Op != OpModRaise || out.Level != budget || out.Pend != 0 || out.Degree != 1 {
				t.Fatalf("output %s [L%d P%d d%d], want modraise [L%d P0 d1]\n%s",
					out.Op, out.Level, out.Pend, out.Degree, budget, lp)
			}
			v := out
			for i, op := range tc.wantSrc {
				v = v.Args[0]
				if v.Op != op || v.Level != tc.srcLvls[i] {
					t.Fatalf("operand %d is %s at L%d, want %s at L%d\n%s", i, v.Op, v.Level, op, tc.srcLvls[i], lp)
				}
			}
			if v.Op == OpModSwitch && v.K != budget {
				t.Fatalf("modswitch drops %d levels, want %d", v.K, budget)
			}
		})
	}
}

// TestModRaiseInterpretIdentity pins the plaintext oracle's reading of
// ModRaise: the identity on slots, legalized or not.
func TestModRaiseInterpretIdentity(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	b.Output(b.ModRaise(x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := []complex128{1, 2i, -3, 0.5, 0, 7, -1i, 4}
	for _, prog := range []*Program{p, lp} {
		got, err := Interpret(prog, map[string][]complex128{"x": in})
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("slot %d: got %v, want %v", i, got[i], in[i])
			}
		}
	}
	if c := Measure(lp); c.KeySwitch != 0 || c.Rescale != 0 || c.PMult != 0 {
		t.Fatalf("ModRaise costed %+v, want no work", c)
	}
}

// TestModRaiseLowerings checks the two ciphertext lowerings of ModRaise
// against each other and against the evaluator: Evaluate and the cluster
// lowering (ModSwitch as a copy, OpRaise dropping to level 0 itself) must
// both produce exactly DropLevel + RaiseModulus, and Evaluate must refuse a
// program whose budget is not the parameters' top level.
func TestModRaiseLowerings(t *testing.T) {
	const levels = 3
	te := newTestEnv(t, 5, levels, nil, false)
	build := func(budget int) *Program {
		b := NewBuilder(te.params.Slots())
		b.Output(b.ModRaise(b.Input("x")))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		lp, err := Legalize(p, LegalizeOptions{Levels: budget})
		if err != nil {
			t.Fatal(err)
		}
		return lp
	}
	in := map[string][]complex128{"x": randVec(rand.New(rand.NewSource(5)), te.params.Slots())}
	inputs := te.encryptAll(t, in, levels)
	ctx := EvalContext{Eval: te.eval, Enc: te.enc}

	p := build(levels)
	got, err := Evaluate(p, ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	dropped := inputs["x"].CopyNew()
	dropped.DropLevel(levels)
	want := te.eval.RaiseModulus(dropped)
	if !got.Equal(want) {
		t.Fatal("Evaluate(ModRaise) differs from DropLevel + RaiseModulus")
	}

	progs, err := LowerCluster(p, te.enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(te, 1)
	cl.Load(0, "x", inputs["x"])
	if err := cl.Run(context.Background(), progs); err != nil {
		t.Fatal(err)
	}
	clOut, err := cl.Get(0, "out")
	if err != nil {
		t.Fatal(err)
	}
	if !clOut.Equal(want) {
		t.Fatal("cluster lowering of ModRaise differs from DropLevel + RaiseModulus")
	}

	short := build(levels - 1)
	if _, err := Evaluate(short, ctx, te.encryptAll(t, in, levels-1)); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget %d below the top level: got error %v, want a budget error", levels-1, err)
	}
}
