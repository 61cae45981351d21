package fhir

import "fmt"

// LegalizeOptions configure rescale/level placement.
type LegalizeOptions struct {
	// Levels is the level every input arrives at (the depth budget).
	Levels int
	// Eager closes every pending rescale immediately after the operation
	// that opened it — the naive placement. The default (lazy) placement
	// defers rescales through additions and rotations and closes them only
	// where an operation requires canonical-scale operands (multiplicative
	// ops and the output), matching the accumulate-then-rescale idiom of the
	// hand-tuned evaluator procedures and saving one Rescale per fold.
	Eager bool
}

// Legalize computes the (level, pend, degree) fact for every value and
// inserts the Rescale and ModSwitch operations that make the program
// executable: binary operations receive level-aligned, scale-matched
// operands, multiplicative operations receive canonical-scale operands, a
// ModRaise receives a canonical operand mod-switched to level 0 (its result
// sits at the full budget again), and the output leaves at the canonical
// scale. It returns a new program (the input is unchanged) with Legal set,
// or an error if the program exceeds the depth budget or violates degree
// rules.
func Legalize(p *Program, opts LegalizeOptions) (*Program, error) {
	if opts.Levels <= 0 {
		return nil, fmt.Errorf("fhir: legalize needs a positive level budget")
	}
	l := &legalizer{opts: opts}
	rep := make(map[*Value]*Value, len(p.Values))
	for _, v := range p.Values {
		nv, err := l.lower(v, rep)
		if err != nil {
			return nil, fmt.Errorf("fhir: legalize v%d (%s): %w", v.ID, v.Op, err)
		}
		rep[v] = nv
	}
	out, err := l.canonical(rep[p.Output])
	if err != nil {
		return nil, fmt.Errorf("fhir: legalize output: %w", err)
	}
	if out.Degree != 1 {
		return nil, fmt.Errorf("fhir: output has degree %d, want 1 (missing relinearization)", out.Degree)
	}
	np := &Program{Slots: p.Slots, Values: l.vals, Output: out, Legal: true, InputLevel: opts.Levels}
	return dce(np), nil
}

type legalizer struct {
	opts LegalizeOptions
	vals []*Value
}

func (l *legalizer) emit(v *Value) *Value {
	v.ID = len(l.vals)
	l.vals = append(l.vals, v)
	return v
}

// rescale closes one pending product on a.
func (l *legalizer) rescale(a *Value) (*Value, error) {
	if a.Level == 0 {
		return nil, fmt.Errorf("modulus chain exhausted (rescale at level 0); raise the level budget")
	}
	if a.Pend == 0 {
		return nil, fmt.Errorf("rescale below the canonical scale")
	}
	return l.emit(&Value{Op: OpRescale, Args: []*Value{a}, Level: a.Level - 1, Pend: a.Pend - 1, Degree: a.Degree}), nil
}

// canonical rescales a down to the canonical scale (pend 0).
func (l *legalizer) canonical(a *Value) (*Value, error) {
	var err error
	for a.Pend > 0 {
		if a, err = l.rescale(a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// drop mod-switches a down to the given level.
func (l *legalizer) drop(a *Value, level int) *Value {
	if a.Level == level {
		return a
	}
	return l.emit(&Value{Op: OpModSwitch, Args: []*Value{a}, K: a.Level - level,
		Level: level, Pend: a.Pend, Degree: a.Degree})
}

// match prepares two operands for a binary addition: equal pend (rescaling
// the higher), then equal level (mod-switching the higher).
func (l *legalizer) match(a, b *Value) (*Value, *Value, error) {
	var err error
	for a.Pend > b.Pend {
		if a, err = l.rescale(a); err != nil {
			return nil, nil, err
		}
	}
	for b.Pend > a.Pend {
		if b, err = l.rescale(b); err != nil {
			return nil, nil, err
		}
	}
	if a.Level > b.Level {
		a = l.drop(a, b.Level)
	} else if b.Level > a.Level {
		b = l.drop(b, a.Level)
	}
	return a, b, nil
}

// settle applies the eager policy: close every pending rescale right away.
func (l *legalizer) settle(a *Value) (*Value, error) {
	if !l.opts.Eager {
		return a, nil
	}
	return l.canonical(a)
}

func (l *legalizer) lower(v *Value, rep map[*Value]*Value) (*Value, error) {
	args := make([]*Value, len(v.Args))
	for i, a := range v.Args {
		args[i] = rep[a]
	}
	deg1 := func(vs ...*Value) error {
		for _, a := range vs {
			if a.Degree != 1 {
				return fmt.Errorf("operand v%d has degree %d, want 1", a.ID, a.Degree)
			}
		}
		return nil
	}
	switch v.Op {
	case OpInput:
		return l.emit(&Value{Op: OpInput, Name: v.Name, Level: l.opts.Levels, Degree: 1}), nil

	case OpAdd, OpSub:
		a, b := args[0], args[1]
		if a.Degree != b.Degree {
			return nil, fmt.Errorf("degree mismatch: %d vs %d", a.Degree, b.Degree)
		}
		a, b, err := l.match(a, b)
		if err != nil {
			return nil, err
		}
		return l.emit(&Value{Op: v.Op, Args: []*Value{a, b},
			Level: a.Level, Pend: a.Pend, Degree: a.Degree}), nil

	case OpNeg:
		a := args[0]
		if err := deg1(a); err != nil {
			return nil, err
		}
		return l.emit(&Value{Op: v.Op, Args: []*Value{a}, Const: v.Const,
			Level: a.Level, Pend: a.Pend, Degree: 1}), nil

	case OpAddConst:
		// The constant is encoded as an integer at the operand's live scale;
		// a deferred scale of Δ² overflows that encoding, so AddConst always
		// takes a canonical-scale operand.
		a, err := l.canonical(args[0])
		if err != nil {
			return nil, err
		}
		if err := deg1(a); err != nil {
			return nil, err
		}
		return l.emit(&Value{Op: OpAddConst, Args: []*Value{a}, Const: v.Const,
			Level: a.Level, Pend: 0, Degree: 1}), nil

	case OpRotate, OpConjugate:
		a := args[0]
		if err := deg1(a); err != nil {
			return nil, err
		}
		return l.emit(&Value{Op: v.Op, Args: []*Value{a}, K: v.K,
			Level: a.Level, Pend: a.Pend, Degree: 1}), nil

	case OpMulConst, OpMulPlain:
		a, err := l.canonical(args[0])
		if err != nil {
			return nil, err
		}
		if err := deg1(a); err != nil {
			return nil, err
		}
		nv := l.emit(&Value{Op: v.Op, Args: []*Value{a}, Const: v.Const, Plain: v.Plain,
			Level: a.Level, Pend: 1, Degree: 1})
		return l.settle(nv)

	case OpMul:
		a, err := l.canonical(args[0])
		if err != nil {
			return nil, err
		}
		b, err := l.canonical(args[1])
		if err != nil {
			return nil, err
		}
		if err := deg1(a, b); err != nil {
			return nil, err
		}
		if a.Level > b.Level {
			a = l.drop(a, b.Level)
		} else if b.Level > a.Level {
			b = l.drop(b, a.Level)
		}
		return l.emit(&Value{Op: OpMul, Args: []*Value{a, b},
			Level: a.Level, Pend: 1, Degree: 2}), nil

	case OpRelin:
		a := args[0]
		if a.Degree != 2 {
			return nil, fmt.Errorf("relinearization of a degree-%d value", a.Degree)
		}
		nv := l.emit(&Value{Op: OpRelin, Args: []*Value{a},
			Level: a.Level, Pend: a.Pend, Degree: 1})
		return l.settle(nv)

	case OpModRaise:
		a, err := l.canonical(args[0])
		if err != nil {
			return nil, err
		}
		if err := deg1(a); err != nil {
			return nil, err
		}
		return l.emit(&Value{Op: OpModRaise, Args: []*Value{l.drop(a, 0)},
			Level: l.opts.Levels, Pend: 0, Degree: 1}), nil

	case OpRescale:
		return l.rescale(args[0])

	case OpModSwitch:
		return l.drop(args[0], args[0].Level-v.K), nil

	case OpRotBasket, OpDiagMac, OpRotSum:
		return nil, fmt.Errorf("fused op reached legalization; run Hoist after Legalize")

	default:
		return nil, fmt.Errorf("unknown op %d", int(v.Op))
	}
}
