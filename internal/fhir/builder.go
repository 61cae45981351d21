package fhir

import "fmt"

// Builder constructs Programs. It is the only way user code creates IR:
// every constructor checks degrees at build time, folds trivial identities
// (rotation by zero), and keeps the value list topologically ordered by
// construction. Scales and levels are not the builder's concern — Legalize
// places Rescale/ModSwitch later, so frontends write the mathematical
// structure and the pipeline derives the modulus-chain protocol.
type Builder struct {
	slots    int
	vals     []*Value
	output   *Value
	nextUID  int
	inputs   map[string]*Value
	firstErr error
}

// NewBuilder starts a program over the given slot count.
func NewBuilder(slots int) *Builder {
	if slots <= 0 {
		panic("fhir: slot count must be positive")
	}
	return &Builder{slots: slots, inputs: map[string]*Value{}}
}

func (b *Builder) errf(format string, args ...any) {
	if b.firstErr == nil {
		b.firstErr = fmt.Errorf(format, args...)
	}
}

func (b *Builder) emit(v *Value) *Value {
	v.ID = len(b.vals)
	b.vals = append(b.vals, v)
	return v
}

// Input declares (or returns the existing) named ciphertext input.
func (b *Builder) Input(name string) *Value {
	if v, ok := b.inputs[name]; ok {
		return v
	}
	v := b.emit(&Value{Op: OpInput, Name: name})
	b.inputs[name] = v
	return v
}

// Plain wraps a deterministic slot-vector generator as a plaintext operand.
// Two Plains with the same non-empty key are treated as identical by CSE.
func (b *Builder) Plain(key string, gen func(slots int) ([]complex128, error)) *Plain {
	b.nextUID++
	return &Plain{Key: key, Values: gen, uid: b.nextUID}
}

// PlainVec wraps a fixed slot vector as a plaintext operand.
func (b *Builder) PlainVec(key string, vals []complex128) *Plain {
	cp := append([]complex128(nil), vals...)
	return b.Plain(key, func(int) ([]complex128, error) { return cp, nil })
}

// Add returns a + y. Degrees must match (degree-2 additions only arise from
// the lazy-relinearization pass, but the builder permits them for tests).
func (b *Builder) Add(a, y *Value) *Value { return b.binop(OpAdd, a, y) }

// Sub returns a - y.
func (b *Builder) Sub(a, y *Value) *Value { return b.binop(OpSub, a, y) }

func (b *Builder) binop(op Op, a, y *Value) *Value {
	if a == nil || y == nil {
		b.errf("fhir: %s of nil value", op)
		return a
	}
	return b.emit(&Value{Op: op, Args: []*Value{a, y}})
}

// Neg returns -a.
func (b *Builder) Neg(a *Value) *Value {
	return b.emit(&Value{Op: OpNeg, Args: []*Value{a}})
}

// AddConst returns a + c.
func (b *Builder) AddConst(a *Value, c float64) *Value {
	return b.emit(&Value{Op: OpAddConst, Args: []*Value{a}, Const: c})
}

// MulConst returns a · c. The constant is encoded at the default scale, so
// the result carries a pending rescale.
func (b *Builder) MulConst(a *Value, c float64) *Value {
	return b.emit(&Value{Op: OpMulConst, Args: []*Value{a}, Const: c})
}

// MulPlain returns a ⊙ pt. The result carries a pending rescale.
func (b *Builder) MulPlain(a *Value, pt *Plain) *Value {
	if pt == nil {
		b.errf("fhir: MulPlain with nil plaintext")
		return a
	}
	return b.emit(&Value{Op: OpMulPlain, Args: []*Value{a}, Plain: pt})
}

// Mul returns a · y relinearized: it emits the degree-2 tensor product and
// the relinearization as separate values, so the lazy-relinearization pass
// can pull the keyswitch through later additions.
func (b *Builder) Mul(a, y *Value) *Value {
	t := b.emit(&Value{Op: OpMul, Args: []*Value{a, y}})
	return b.emit(&Value{Op: OpRelin, Args: []*Value{t}})
}

// Rotate rotates slots left by k. Rotation by zero is the identity and
// returns a unchanged.
func (b *Builder) Rotate(a *Value, k int) *Value {
	if k == 0 {
		return a
	}
	return b.emit(&Value{Op: OpRotate, Args: []*Value{a}, K: k})
}

// Conjugate conjugates every slot.
func (b *Builder) Conjugate(a *Value) *Value {
	return b.emit(&Value{Op: OpConjugate, Args: []*Value{a}})
}

// ModRaise re-expresses a at the top of the modulus chain, the first step of
// bootstrapping. The result decrypts to m + q0·I for a small integer
// polynomial I, so it is the identity only on the slots the following
// CoeffToSlot / sine / SlotToCoeff pipeline cleans up. Legalize drops a to
// level 0 first.
func (b *Builder) ModRaise(a *Value) *Value {
	return b.emit(&Value{Op: OpModRaise, Args: []*Value{a}})
}

// Sum folds the given values with Add, left to right.
func (b *Builder) Sum(vs ...*Value) *Value {
	if len(vs) == 0 {
		b.errf("fhir: Sum of no values")
		return nil
	}
	acc := vs[0]
	for _, v := range vs[1:] {
		acc = b.Add(acc, v)
	}
	return acc
}

// Output designates the program result.
func (b *Builder) Output(v *Value) { b.output = v }

// Build finalizes the program and validates its structure.
func (b *Builder) Build() (*Program, error) {
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	if b.output == nil {
		return nil, fmt.Errorf("fhir: no output designated")
	}
	p := &Program{Slots: b.slots, Values: b.vals, Output: b.output}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
