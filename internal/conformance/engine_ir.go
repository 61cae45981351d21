package conformance

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
	"hydra/internal/hefloat"
	"hydra/internal/hw"
	"hydra/internal/serve"
)

// runIR is the fifth engine: the program is rebuilt as an internal/fhir IR
// program (its mathematical structure, no scales or schedules), compiled
// through the full optimizing pass pipeline (CSE, lazy rescale placement,
// lazy relinearization, rotation hoisting), and the *optimized* form is then
// driven through every lowering the compiler owns:
//
//   - the ckks evaluator lowering produces the ciphertext this engine is
//     scored on (hoisted baskets, extended-basis MACs, deferred relins);
//   - the task lowering must pass the sim engine's schedule-legality
//     battery (checkSchedule);
//   - the cluster lowering executes on the functional multi-card runtime
//     through the serving layer and its decrypted output must independently
//     meet the program budget.
//
// A budget pass here certifies that the compiler's optimizations preserved
// the program's semantics end to end, on every backend at once.
func runIR(env *Env, srv *serve.Server, s *ProgramSpec) (*ckks.Ciphertext, error) {
	prog, err := buildIRProgram(env, s)
	if err != nil {
		return nil, fmt.Errorf("ir frontend: %w", err)
	}
	opt, err := fhir.Compile(prog, fhir.Options{Levels: s.Params.Levels})
	if err != nil {
		return nil, fmt.Errorf("ir compile: %w", err)
	}

	inputs, err := encryptInputs(env, s, opt.InputLevel)
	if err != nil {
		return nil, err
	}
	out, err := fhir.Evaluate(opt, fhir.EvalContext{Eval: env.Eval, Enc: env.Encoder}, inputs)
	if err != nil {
		return nil, fmt.Errorf("ir evaluate: %w", err)
	}

	tp, err := fhir.BuildTaskProgram(opt, hw.PaperScheme(), simCards, 2, s.Name)
	if err != nil {
		return nil, fmt.Errorf("ir task lowering: %w", err)
	}
	if _, err := checkSchedule(tp, len(s.Ops) > 0); err != nil {
		return nil, fmt.Errorf("ir task lowering: %w", err)
	}

	clOut, err := submitCluster(env, srv, opt, s)
	if err != nil {
		return nil, fmt.Errorf("ir cluster lowering: %w", err)
	}
	expected, err := Interpret(s)
	if err != nil {
		return nil, err
	}
	got := env.Encoder.Decode(env.Dec.Decrypt(clOut))
	if maxErr := MaxSlotError(got, expected); maxErr > s.Budget {
		return nil, fmt.Errorf("ir cluster lowering: output max slot error %.3g exceeds budget %.3g", maxErr, s.Budget)
	}
	return out, nil
}

// buildIRProgram translates a conformance spec into an fhir program. The
// translation writes only mathematics — per-rotation sums, per-diagonal
// products, Horner chains — and leaves every optimization (rotation merging,
// rescale placement, relin deferral) to the pass pipeline, so the matrix
// exercises the compiler rather than a hand-optimized frontend.
func buildIRProgram(env *Env, s *ProgramSpec) (*fhir.Program, error) {
	slots := s.Slots()
	b := fhir.NewBuilder(slots)
	regs := map[string]*fhir.Value{}
	for _, in := range s.Inputs {
		regs[in.Name] = b.Input(in.Name)
	}
	get := func(name string) (*fhir.Value, error) {
		v, ok := regs[name]
		if !ok {
			return nil, fmt.Errorf("register %q undefined", name)
		}
		return v, nil
	}
	for i, op := range s.Ops {
		a, err := get(op.A)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
		var out *fhir.Value
		switch op.Op {
		case "add", "sub", "mul", "ccmm":
			bb, err := get(op.B)
			if err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
			switch op.Op {
			case "add":
				out = b.Add(a, bb)
			case "sub":
				out = b.Sub(a, bb)
			case "mul":
				out = b.Mul(a, bb)
			case "ccmm":
				out, err = irCCMM(b, slots, a, bb)
				if err != nil {
					return nil, fmt.Errorf("op %d (ccmm): %w", i, err)
				}
			}
		case "neg":
			out = b.Neg(a)
		case "conjugate":
			out = b.Conjugate(a)
		case "rotate":
			out = b.Rotate(a, op.K)
		case "addconst":
			out = b.AddConst(a, op.Const)
		case "mulconst":
			out = b.MulConst(a, op.Const)
		case "mulplain":
			vals, err := GenVector(op.Gen, slots)
			if err != nil {
				return nil, err
			}
			out = b.MulPlain(a, b.PlainVec("gen:"+op.Gen, vals))
		case "rotsum", "rotsumext":
			if op.K < 1 {
				return nil, fmt.Errorf("op %d: rotsum width %d", i, op.K)
			}
			out = a
			for r := 1; r < op.K; r++ {
				out = b.Add(out, b.Rotate(a, r))
			}
		case "lintrans":
			m, err := GenMatrix(op.Matrix, slots)
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewLinearTransform(m)
			if err != nil {
				return nil, err
			}
			out = irLinTrans(b, a, lt, op.BS, fmt.Sprintf("lt%d:%s", i, op.Matrix))
		case "pcmm":
			w, err := GenWeights(op.Matrix, isqrt(slots))
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewPCMMTransform(w, slots)
			if err != nil {
				return nil, err
			}
			out = irLinTrans(b, a, lt, 0, fmt.Sprintf("pcmm%d:%s", i, op.Matrix))
		case "poly":
			if len(op.Coeffs) < 2 {
				return nil, fmt.Errorf("op %d: poly needs degree >= 1", i)
			}
			out = irHorner(b, a, op.Coeffs)
		case "bootstrap":
			out, err = irBootstrap(b, env, a)
			if err != nil {
				return nil, fmt.Errorf("op %d (bootstrap): %w", i, err)
			}
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		regs[op.Dst] = out
	}
	outVal, err := get(s.Output)
	if err != nil {
		return nil, err
	}
	b.Output(outVal)
	return b.Build()
}

// irHorner writes p(x) by Horner's rule, mirroring hefloat.EvaluateHorner
// product for product. coeffs needs degree >= 1.
func irHorner(b *fhir.Builder, x *fhir.Value, coeffs []float64) *fhir.Value {
	deg := len(coeffs) - 1
	acc := b.AddConst(b.MulConst(x, coeffs[deg]), coeffs[deg-1])
	for t := deg - 2; t >= 0; t-- {
		acc = b.AddConst(b.Mul(acc, x), coeffs[t])
	}
	return acc
}

// irBootstrap writes bootstrapping as plain IR from the environment
// bootstrapper's own transforms (constants folded in), so every executor
// computes hefloat's pipeline: ModRaise, the four CoeffToSlot BSGS
// transforms over z and conj(z), per branch the θ pre-scale, the small-angle
// sin/cos Taylor pair and the double-angle steps, then the two SlotToCoeff
// transforms and their sum. The Taylor pair runs by Horner rather than
// hefloat's power tree, which costs more levels; the corpus's modulus chain
// is sized for it.
func irBootstrap(b *fhir.Builder, env *Env, x *fhir.Value) (*fhir.Value, error) {
	bt, err := env.bootstrapper()
	if err != nil {
		return nil, err
	}
	ltP, ltQ, ltR, ltS := bt.CoeffToSlotTransforms()
	ltA, ltB := bt.SlotToCoeffTransforms()
	bs := bt.BabySteps()
	deg, iters := bt.SineSchedule()
	sinCoeffs, cosCoeffs := hefloat.SineTaylor(deg)
	theta := 2 * math.Pi / math.Pow(2, float64(iters))
	sine := func(u *fhir.Value) *fhir.Value {
		y := b.MulConst(u, theta)
		s, c := irHorner(b, y, sinCoeffs), irHorner(b, y, cosCoeffs)
		for i := 0; i < iters; i++ {
			sc, ss := b.Mul(s, c), b.Mul(s, s)
			s = b.Add(sc, sc)                       // sin 2y = 2 sin y cos y
			c = b.AddConst(b.Neg(b.Add(ss, ss)), 1) // cos 2y = 1 - 2 sin² y
		}
		return s
	}
	z := b.ModRaise(x)
	zc := b.Conjugate(z)
	u0 := b.Add(irLinTrans(b, z, ltP, bs, "boot:P"), irLinTrans(b, zc, ltQ, bs, "boot:Q"))
	u1 := b.Add(irLinTrans(b, z, ltR, bs, "boot:R"), irLinTrans(b, zc, ltS, bs, "boot:S"))
	return b.Add(irLinTrans(b, sine(u0), ltA, bs, "boot:A"), irLinTrans(b, sine(u1), ltB, bs, "boot:B")), nil
}

// irLinTrans writes a diagonal-decomposed linear transform. With bs <= 0 it
// is the naive sum Σ_d diag_d ⊙ rot(x, d); with bs > 0 it is the BSGS
// regrouping Σ_g rot(Σ_j shifted_diag ⊙ rot(x, j), g) — in both cases as
// plain per-rotation products whose sharing the hoisting pass discovers.
func irLinTrans(b *fhir.Builder, x *fhir.Value, lt *hefloat.LinearTransform, bs int, key string) *fhir.Value {
	ds := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var acc *fhir.Value
	if bs <= 0 {
		for _, d := range ds {
			term := b.MulPlain(b.Rotate(x, d), b.PlainVec(fmt.Sprintf("%s:d%d", key, d), lt.Diags[d]))
			if acc == nil {
				acc = term
			} else {
				acc = b.Add(acc, term)
			}
		}
		return acc
	}
	groups := map[int][]int{}
	for _, d := range ds {
		g := d - d%bs
		groups[g] = append(groups[g], d)
	}
	gs := make([]int, 0, len(groups))
	for g := range groups {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	for _, g := range gs {
		var inner *fhir.Value
		for _, d := range groups[g] {
			pt := b.PlainVec(fmt.Sprintf("%s:g%d:d%d", key, g, d), lt.ShiftedDiag(d, g))
			term := b.MulPlain(b.Rotate(x, d-g), pt)
			if inner == nil {
				inner = term
			} else {
				inner = b.Add(inner, term)
			}
		}
		rotated := b.Rotate(inner, g)
		if acc == nil {
			acc = rotated
		} else {
			acc = b.Add(acc, rotated)
		}
	}
	return acc
}

// irCCMM writes the ciphertext-ciphertext matrix product over column-packed
// k×k operands: naive σ/τ pre-transforms, then the k combine iterations with
// the ψ_d main/wraparound masks — the same iteration structure as
// hefloat.CCMM, with every product left to the lazy-relinearization pass.
func irCCMM(b *fhir.Builder, slots int, x, z *fhir.Value) (*fhir.Value, error) {
	k := isqrt(slots)
	if k*k != slots {
		return nil, fmt.Errorf("ccmm needs a square slot count, got %d", slots)
	}
	sigma, err := hefloat.NewLinearTransform(hefloat.CCMMSigma(k))
	if err != nil {
		return nil, err
	}
	tau, err := hefloat.NewLinearTransform(hefloat.CCMMTau(k))
	if err != nil {
		return nil, err
	}
	a := irLinTrans(b, x, sigma, 0, "ccmm:sigma")
	bb := irLinTrans(b, z, tau, 0, "ccmm:tau")
	var acc *fhir.Value
	for d := 0; d < k; d++ {
		ad := b.Rotate(a, d*k)
		maskMain, maskWrap := hefloat.CCMMMasks(k, d)
		var bd *fhir.Value
		if d == 0 {
			bd = b.MulPlain(bb, b.PlainVec("ccmm:mask0", maskMain))
		} else {
			main := b.MulPlain(b.Rotate(bb, d), b.PlainVec(fmt.Sprintf("ccmm:m%d", d), maskMain))
			wrap := b.MulPlain(b.Rotate(bb, d-k), b.PlainVec(fmt.Sprintf("ccmm:w%d", d), maskWrap))
			bd = b.Add(main, wrap)
		}
		term := b.Mul(ad, bd)
		if acc == nil {
			acc = term
		} else {
			acc = b.Add(acc, term)
		}
	}
	return acc, nil
}
