package fhir

import "sort"

// Hoist merges rotations that share a digit decomposition into extended-basis
// folds — the compiler form of the double-hoisting optimization (PR 5's
// RotateHoistedExt machinery) that turns rotation reuse into a pure
// scheduling decision.
//
// Tier B (ext-basis folds) restructures addition trees:
//
//   - a fold of single-use MulPlain(Rotate(src, k), pt) leaves sharing one
//     source becomes RotBasket(src) feeding a DiagMac — the source is
//     decomposed once, every rotation stays in the P·Q basis, the
//     plaintext MACs run there, and the whole fold pays one ModDown
//     (exactly hefloat's TransformPlan.Apply giant step);
//   - a fold of single-use Rotate(src, k) leaves (with or without the
//     identity term src) becomes a RotSum — one decomposition, one ModDown.
//
// Tier A (shared decomposition) annotates the rotations that survive tier B:
// rotations of the same source are grouped (Value.Hoist), and the lowering
// decomposes the source once per group (RotateHoisted), paying one ModDown
// per rotation but one decomposition per group.
//
// Hoist requires a legalized program; a tree's leaves all carry the same
// (level, pend) facts, so every fused value's facts follow directly.
func Hoist(p *Program) *Program {
	h := &hoister{
		p:         p,
		uses:      p.uses(),
		consumers: map[*Value][]*Value{},
		rep:       map[*Value]*Value{},
		baskets:   map[*Value]*Value{},
		basketRot: map[*Value]map[int]bool{},
	}
	for _, v := range p.Values {
		for _, a := range v.Args {
			h.consumers[a] = append(h.consumers[a], v)
		}
	}
	h.planTrees()
	out := &Program{Slots: p.Slots, Legal: p.Legal, InputLevel: p.InputLevel}
	h.out = out
	for _, v := range p.Values {
		if root, ok := h.roots[v]; ok {
			h.rep[v] = h.emitTree(root)
			continue
		}
		if h.claimed[v] {
			// Consumed into a fused form; reachable occurrences were
			// rewritten through rep, so emit nothing. (A claimed value is
			// never referenced outside its tree — planTrees guarantees it.)
			continue
		}
		args := make([]*Value, len(v.Args))
		for i, a := range v.Args {
			args[i] = h.rep[a]
		}
		h.rep[v] = h.emit(&Value{Op: v.Op, Args: args, K: v.K, Const: v.Const, Plain: v.Plain,
			Rots: v.Rots, Plains: v.Plains, Name: v.Name,
			Level: v.Level, Pend: v.Pend, Degree: v.Degree, Hoist: v.Hoist})
	}
	out.Output = h.rep[p.Output]
	out = dce(out)
	annotateSharedDecomp(out)
	return out
}

// treePlan is one addition tree scheduled for restructuring.
type treePlan struct {
	root   *Value
	leaves []*Value // in-order leaf occurrences
	// macGroups and rotGroups index leaves by fold membership.
	macGroups []*macGroup
	rotGroups []*rotGroup
	claimed   map[*Value]bool // leaves consumed by a fold
}

type macGroup struct {
	src    *Value // shared rotation source (pre-rewrite)
	ks     []int
	plains []*Plain
}

type rotGroup struct {
	src      *Value
	ks       []int // includes 0 when the identity term participates
	identity bool
}

type hoister struct {
	p         *Program
	uses      map[*Value]int
	consumers map[*Value][]*Value
	rep       map[*Value]*Value
	out       *Program

	roots   map[*Value]*treePlan
	claimed map[*Value]bool // values consumed by some fused form (tree-internal)

	baskets   map[*Value]*Value       // rewritten src -> emitted RotBasket
	basketRot map[*Value]map[int]bool // rewritten src -> rotation set
}

func (h *hoister) emit(v *Value) *Value {
	v.ID = len(h.out.Values)
	h.out.Values = append(h.out.Values, v)
	return v
}

// treeMember reports whether v is an internal node of an addition tree when
// reached from a parent add: a degree-1 add consumed exactly once.
func (h *hoister) treeMember(v *Value) bool {
	return v.Op == OpAdd && v.Degree == 1 && h.uses[v] == 1
}

// planTrees finds every maximal addition tree and decides its folds.
func (h *hoister) planTrees() {
	h.roots = map[*Value]*treePlan{}
	h.claimed = map[*Value]bool{}
	for _, v := range h.p.Values {
		if v.Op != OpAdd || v.Degree != 1 {
			continue
		}
		// Roots: adds whose single consumer is not itself a tree-internal add.
		// (The output counts as a use but has no consumer value.)
		if h.uses[v] == 1 && len(h.consumers[v]) == 1 {
			c := h.consumers[v][0]
			if c.Op == OpAdd && c.Degree == 1 {
				continue
			}
		}
		plan := h.planTree(v)
		if plan != nil {
			h.roots[v] = plan
		}
	}
}

func (h *hoister) planTree(root *Value) *treePlan {
	plan := &treePlan{root: root, claimed: map[*Value]bool{}}
	internal := []*Value{}
	var walk func(v *Value)
	walk = func(v *Value) {
		for _, a := range v.Args {
			if h.treeMember(a) {
				internal = append(internal, a)
				walk(a)
			} else {
				plan.leaves = append(plan.leaves, a)
			}
		}
	}
	walk(root)
	if len(plan.leaves) < 3 {
		return nil // folds need at least two merged rotations to pay off
	}
	// A value appearing as more than one leaf carries multiplicity the fused
	// forms cannot express; exclude it from folding.
	mult := map[*Value]int{}
	for _, l := range plan.leaves {
		mult[l]++
	}

	macBySrc := map[*Value]*macGroup{}
	rotBySrc := map[*Value]*rotGroup{}
	var macOrder, rotOrder []*Value
	for _, leaf := range plan.leaves {
		if mult[leaf] > 1 {
			continue
		}
		switch {
		case leaf.Op == OpMulPlain && h.uses[leaf] == 1:
			src, k := leaf.Args[0], 0
			if src.Op == OpRotate {
				src, k = src.Args[0], leaf.Args[0].K
			}
			g := macBySrc[src]
			if g == nil {
				g = &macGroup{src: src}
				macBySrc[src] = g
				macOrder = append(macOrder, src)
			}
			g.ks = append(g.ks, k)
			g.plains = append(g.plains, leaf.Plain)
		case leaf.Op == OpRotate && h.uses[leaf] == 1:
			src := leaf.Args[0]
			g := rotBySrc[src]
			if g == nil {
				g = &rotGroup{src: src}
				rotBySrc[src] = g
				rotOrder = append(rotOrder, src)
			}
			g.ks = append(g.ks, leaf.K)
		}
	}
	// The identity term of a rotation sum: a leaf that IS the source of a
	// rotation group joins it as rotation 0.
	for _, leaf := range plan.leaves {
		if mult[leaf] > 1 {
			continue
		}
		if g, ok := rotBySrc[leaf]; ok && !g.identity {
			g.identity = true
			g.ks = append(g.ks, 0)
		}
	}

	claim := func(leaf *Value) {
		plan.claimed[leaf] = true
		// Claimed single-use leaves (and, for MulPlains over single-use
		// rotations, the rotation beneath) disappear from the program.
		if h.uses[leaf] == 1 {
			h.claimed[leaf] = true
			if leaf.Op == OpMulPlain && leaf.Args[0].Op == OpRotate && h.uses[leaf.Args[0]] == 1 {
				h.claimed[leaf.Args[0]] = true
			}
		}
	}
	for _, src := range macOrder {
		g := macBySrc[src]
		if len(g.ks) < 2 {
			continue
		}
		plan.macGroups = append(plan.macGroups, g)
		for _, leaf := range plan.leaves {
			if leaf.Op == OpMulPlain && h.uses[leaf] == 1 && mult[leaf] == 1 && macLeafSrc(leaf) == src {
				claim(leaf)
			}
		}
	}
	for _, src := range rotOrder {
		g := rotBySrc[src]
		if len(g.ks)-boolToInt(g.identity) < 2 {
			continue
		}
		sort.Ints(g.ks)
		plan.rotGroups = append(plan.rotGroups, g)
		for _, leaf := range plan.leaves {
			if mult[leaf] > 1 {
				continue
			}
			if leaf.Op == OpRotate && h.uses[leaf] == 1 && leaf.Args[0] == src {
				claim(leaf)
			}
			if g.identity && leaf == src {
				plan.claimed[leaf] = true // the source value itself stays live for the basket
			}
		}
	}
	if len(plan.macGroups) == 0 && len(plan.rotGroups) == 0 {
		return nil
	}
	// Internal adds of a restructured tree are replaced wholesale.
	for _, v := range internal {
		h.claimed[v] = true
	}
	return plan
}

func macLeafSrc(leaf *Value) *Value {
	if leaf.Args[0].Op == OpRotate {
		return leaf.Args[0].Args[0]
	}
	return leaf.Args[0]
}

// basketFor returns (emitting on demand) the RotBasket over the rewritten
// source covering the given rotations. Baskets are shared across folds: a
// multi-group BSGS transform pays one decomposition for all its giant steps.
func (h *hoister) basketFor(src *Value, ks []int) *Value {
	rotSet := h.basketRot[src]
	if rotSet == nil {
		rotSet = map[int]bool{}
		h.basketRot[src] = rotSet
	}
	for _, k := range ks {
		rotSet[k] = true
	}
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	b := h.baskets[src]
	if b == nil {
		b = h.emit(&Value{Op: OpRotBasket, Args: []*Value{src}, Rots: rots,
			Level: src.Level, Pend: src.Pend, Degree: 1})
		h.baskets[src] = b
	} else {
		// Widen the existing basket in place; it is topologically before
		// every consumer either way.
		b.Rots = rots
	}
	return b
}

// emitTree materializes the restructured tree: fused folds plus the
// unclaimed leaves, combined left to right.
func (h *hoister) emitTree(plan *treePlan) *Value {
	var terms []*Value
	for _, g := range plan.macGroups {
		src := h.rep[g.src]
		basket := h.basketFor(src, g.ks)
		terms = append(terms, h.emit(&Value{Op: OpDiagMac, Args: []*Value{basket},
			Rots: append([]int(nil), g.ks...), Plains: append([]*Plain(nil), g.plains...),
			Level: src.Level, Pend: src.Pend + 1, Degree: 1}))
	}
	for _, g := range plan.rotGroups {
		src := h.rep[g.src]
		terms = append(terms, h.emit(&Value{Op: OpRotSum, Args: []*Value{src},
			Rots:  append([]int(nil), g.ks...),
			Level: src.Level, Pend: src.Pend, Degree: 1}))
	}
	seen := map[*Value]bool{}
	for _, leaf := range plan.leaves {
		if plan.claimed[leaf] && !seen[leaf] {
			seen[leaf] = true
			continue
		}
		terms = append(terms, h.rep[leaf])
	}
	acc := terms[0]
	for _, t := range terms[1:] {
		acc = h.emit(&Value{Op: OpAdd, Args: []*Value{acc, t},
			Level: plan.root.Level, Pend: plan.root.Pend, Degree: 1})
	}
	return acc
}

// annotateSharedDecomp is tier A: surviving rotations grouped by source share
// one digit decomposition (the lowering uses RotateHoisted per group).
func annotateSharedDecomp(p *Program) {
	groups := map[*Value][]*Value{}
	for _, v := range p.Values {
		if v.Op == OpRotate {
			groups[v.Args[0]] = append(groups[v.Args[0]], v)
		}
	}
	id := 0
	for _, v := range p.Values {
		rots := groups[v]
		if len(rots) < 2 {
			continue
		}
		id++
		for _, r := range rots {
			r.Hoist = id
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
