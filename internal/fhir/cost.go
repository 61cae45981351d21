package fhir

// Cost is the static operation-count model the pass pipeline optimizes. It
// counts the expensive primitives of the paper's cost model: keyswitches
// (each rotation, relinearization, and conjugation), digit decompositions
// (the RNS decomposition feeding a keyswitch — shared across hoisted
// rotations), ModDowns (the P·Q → Q basis drop — deferred by the
// extended-basis folds), rescales, and plaintext multiplications.
type Cost struct {
	KeySwitch int `json:"keyswitch"`
	Decomp    int `json:"decomp"`
	ModDown   int `json:"moddown"`
	Rescale   int `json:"rescale"`
	PMult     int `json:"pmult"`
	Values    int `json:"values"`
}

// Measure computes the static cost of a program.
//
// Per-op accounting:
//
//	Rotate      1 keyswitch, 1 ModDown; 1 decomposition unless tier-A
//	            hoisted (then one decomposition per Hoist group)
//	Conjugate   1 keyswitch, 1 decomposition, 1 ModDown
//	Relin       1 keyswitch, 1 decomposition, 1 ModDown
//	RotBasket   1 decomposition, one keyswitch per nonzero rotation,
//	            no ModDown (results stay in the extended basis)
//	DiagMac     n plaintext mults, 1 ModDown (the deferred one)
//	RotSum      1 decomposition, one keyswitch per nonzero rotation, 1 ModDown
//	MulPlain,
//	MulConst    1 plaintext mult
//	Rescale     1 rescale
//	ModRaise    nothing (a coefficient-wise basis extension, no keyswitch)
func Measure(p *Program) Cost {
	var c Cost
	c.Values = len(p.Values)
	hoistGroups := map[int]bool{}
	for _, v := range p.Values {
		switch v.Op {
		case OpRotate:
			c.KeySwitch++
			c.ModDown++
			if v.Hoist == 0 {
				c.Decomp++
			} else {
				hoistGroups[v.Hoist] = true
			}
		case OpConjugate, OpRelin:
			c.KeySwitch++
			c.Decomp++
			c.ModDown++
		case OpRotBasket:
			c.Decomp++
			for _, r := range v.Rots {
				if r != 0 {
					c.KeySwitch++
				}
			}
		case OpDiagMac:
			c.PMult += len(v.Rots)
			c.ModDown++
		case OpRotSum:
			c.Decomp++
			c.ModDown++
			for _, r := range v.Rots {
				if r != 0 {
					c.KeySwitch++
				}
			}
		case OpMulPlain, OpMulConst:
			c.PMult++
		case OpRescale:
			c.Rescale++
		}
	}
	c.Decomp += len(hoistGroups)
	return c
}
