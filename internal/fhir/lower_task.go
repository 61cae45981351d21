package fhir

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/task"
)

// opCounts converts one IR value into the fheop vocabulary the scheduler
// dispatches and the accelerator model costs.
//
// The CMult entry of the cost model bundles the tensor product with its
// relinearization keyswitch, so the split Mul/Relin form the IR uses maps
// back as follows: a Mul whose relinearization follows directly is one
// CMult (and the Relin itself is free); a Mul kept at degree 2 by the
// lazy-relinearization pass is charged the three component products as
// PMults, and the one deferred Relin of the fold is the KeySwitch it
// actually costs. The fused extended-basis forms keep their per-rotation
// keyswitches (Rotation) — what they save at runtime is decompositions and
// ModDowns, which the static op vocabulary does not price.
func opCounts(v *Value, relinFused, mulFused map[*Value]bool) fheop.Counts {
	nonzero := func(rots []int) int {
		n := 0
		for _, r := range rots {
			if r != 0 {
				n++
			}
		}
		return n
	}
	switch v.Op {
	case OpAdd, OpSub, OpNeg, OpAddConst:
		return fheop.Of(fheop.HAdd, 1)
	case OpMulConst, OpMulPlain:
		return fheop.Of(fheop.PMult, 1)
	case OpMul:
		if mulFused[v] {
			return fheop.Of(fheop.CMult, 1)
		}
		return fheop.Of(fheop.PMult, 3)
	case OpRelin:
		if relinFused[v] {
			return fheop.Counts{}
		}
		return fheop.Of(fheop.KeySwitch, 1)
	case OpRescale:
		return fheop.Of(fheop.Rescale, 1)
	case OpRotate:
		return fheop.Of(fheop.Rotation, 1)
	case OpConjugate:
		return fheop.Of(fheop.Conjugate, 1)
	case OpRotBasket:
		return fheop.Of(fheop.Rotation, nonzero(v.Rots))
	case OpDiagMac:
		return fheop.Of(fheop.PMult, len(v.Rots), fheop.HAdd, len(v.Rots)-1)
	case OpRotSum:
		return fheop.Of(fheop.Rotation, nonzero(v.Rots), fheop.HAdd, len(v.Rots)-1)
	default: // OpInput, OpModSwitch, OpModRaise: no accelerator work
		return fheop.Counts{}
	}
}

// fusionSets classifies Mul/Relin pairs: a Relin directly over a Mul is
// fused into that Mul's CMult.
func fusionSets(p *Program) (relinFused, mulFused map[*Value]bool) {
	relinFused = map[*Value]bool{}
	mulFused = map[*Value]bool{}
	for _, v := range p.Values {
		if v.Op == OpRelin && v.Args[0].Op == OpMul {
			relinFused[v] = true
			mulFused[v.Args[0]] = true
		}
	}
	return
}

// outputTerms splits the output's addition tree into its top-level terms —
// the parallel units the card partition distributes. Unary wrappers that
// distribute over addition (the Rescale/ModSwitch chain Legalize appends to
// canonicalize the output) are peeled first and returned outermost-last, to
// be re-applied on the aggregating card. A non-add output is a single term.
func outputTerms(p *Program) (terms, wrappers []*Value) {
	out := p.Output
	for out.Op == OpRescale || out.Op == OpModSwitch {
		wrappers = append([]*Value{out}, wrappers...)
		out = out.Args[0]
	}
	var walk func(v *Value)
	walk = func(v *Value) {
		if v.Op == OpAdd && v.Degree == 1 {
			walk(v.Args[0])
			walk(v.Args[1])
			return
		}
		terms = append(terms, v)
	}
	walk(out)
	return terms, wrappers
}

// closure returns every value reachable from the given roots, in program
// order.
func closure(p *Program, roots []*Value) []*Value {
	in := map[*Value]bool{}
	var mark func(v *Value)
	mark = func(v *Value) {
		if in[v] {
			return
		}
		in[v] = true
		for _, a := range v.Args {
			mark(a)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	var out []*Value
	for _, v := range p.Values {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// LowerTask emits a legalized program into the builder's current step as a
// multi-card task-queue schedule, Hydra's static compilation target:
//
//   - the output addition tree is split into its terms, dealt round-robin
//     over the cards;
//   - each card computes the full closure of its terms (shared subtrees are
//     recomputed per card — the uniform-baby-step choice of the paper's BSGS
//     mapping, which trades duplicate compute for zero redistribution) and
//     folds them locally;
//   - partial sums aggregate pairwise to the first card in a tree,
//     log2(cards) rounds of send + receive-and-add, as in Fig. 3(d).
//
// The result lands on cards[0]. Card count must be a power of two.
func LowerTask(p *Program, b *task.Builder, scheme hw.SchemeParams, cards []int, label string) error {
	if !p.Legal {
		return fmt.Errorf("fhir: LowerTask needs a legalized program")
	}
	nc := len(cards)
	if nc == 0 || nc&(nc-1) != 0 {
		return fmt.Errorf("fhir: card count %d must be a positive power of two", nc)
	}
	relinFused, mulFused := fusionSets(p)
	limbs := p.InputLevel + 1
	bytes := float64(scheme.CiphertextBytes(p.Output.Level + 1))

	terms, wrappers := outputTerms(p)
	partials := make([]task.Handle, 0, nc)
	active := make([]int, 0, nc)
	for ci := 0; ci < nc && ci < len(terms); ci++ {
		var mine []*Value
		for ti := ci; ti < len(terms); ti += nc {
			mine = append(mine, terms[ti])
		}
		ops := fheop.Counts{}
		for _, v := range closure(p, mine) {
			ops = ops.Add(opCounts(v, relinFused, mulFused))
		}
		if len(mine) > 1 {
			ops = ops.Add(fheop.Of(fheop.HAdd, len(mine)-1))
		}
		partials = append(partials, b.Compute(cards[ci], ops, limbs, label))
		active = append(active, cards[ci])
	}

	// Pairwise tree aggregation onto cards[0].
	n := len(active)
	for n > 1 {
		half := (n + 1) / 2
		for i := half; i < n; i++ {
			recvs := b.Send(active[i], partials[i], []int{active[i-half]}, bytes, label)
			partials[i-half] = b.ComputeAfterRecv(active[i-half], recvs[0],
				fheop.Of(fheop.HAdd, 1), limbs, label)
		}
		n = half
	}
	// Re-apply the peeled output canonicalization on the aggregating card.
	wrapOps := fheop.Counts{}
	for _, w := range wrappers {
		wrapOps = wrapOps.Add(opCounts(w, nil, nil))
	}
	if wrapOps != (fheop.Counts{}) {
		b.Compute(cards[0], wrapOps, limbs, label)
	}
	return nil
}

// BuildTaskProgram is the one-shot form of LowerTask: it opens a step named
// after the label, lowers the program over cards 0..cards-1, validates, and
// returns the task program.
func BuildTaskProgram(p *Program, scheme hw.SchemeParams, cards, cardsPerServer int, label string) (*task.Program, error) {
	b := task.NewBuilder(cards, cardsPerServer)
	b.Step(label)
	ids := make([]int, cards)
	for i := range ids {
		ids[i] = i
	}
	if err := LowerTask(p, b, scheme, ids, label); err != nil {
		return nil, err
	}
	tp := b.Build()
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	return tp, nil
}
