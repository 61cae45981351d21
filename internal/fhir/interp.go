package fhir

import (
	"fmt"
	"math/cmplx"
)

// Interpret executes a program exactly on plaintext slot vectors — the
// numeric oracle the differential tests and the fuzzer compare every lowering
// against. It works on legalized and unlegalized programs alike: Rescale,
// ModSwitch, and Relin are identities over exact arithmetic, ModRaise is
// taken as the identity (its q0·I overflow has no slot-level meaning), and
// the fused forms compute the sums their extended-basis lowerings
// approximate.
func Interpret(p *Program, inputs map[string][]complex128) ([]complex128, error) {
	rot := func(x []complex128, k int) []complex128 {
		n := len(x)
		out := make([]complex128, n)
		for i := range x {
			out[i] = x[((i+k)%n+n)%n]
		}
		return out
	}
	vals := map[*Value][]complex128{}
	for _, v := range p.Values {
		arg := func(i int) []complex128 { return vals[v.Args[i]] }
		switch v.Op {
		case OpInput:
			in, ok := inputs[v.Name]
			if !ok {
				return nil, fmt.Errorf("fhir: interpret: missing input %q", v.Name)
			}
			if len(in) != p.Slots {
				return nil, fmt.Errorf("fhir: interpret: input %q has %d slots, want %d", v.Name, len(in), p.Slots)
			}
			vals[v] = in
		case OpAdd, OpSub, OpMul:
			a, b := arg(0), arg(1)
			out := make([]complex128, p.Slots)
			for i := range out {
				switch v.Op {
				case OpAdd:
					out[i] = a[i] + b[i]
				case OpSub:
					out[i] = a[i] - b[i]
				case OpMul:
					out[i] = a[i] * b[i]
				}
			}
			vals[v] = out
		case OpNeg:
			out := make([]complex128, p.Slots)
			for i, x := range arg(0) {
				out[i] = -x
			}
			vals[v] = out
		case OpAddConst:
			out := make([]complex128, p.Slots)
			for i, x := range arg(0) {
				out[i] = x + complex(v.Const, 0)
			}
			vals[v] = out
		case OpMulConst:
			out := make([]complex128, p.Slots)
			for i, x := range arg(0) {
				out[i] = x * complex(v.Const, 0)
			}
			vals[v] = out
		case OpMulPlain:
			pt, err := v.Plain.Values(p.Slots)
			if err != nil {
				return nil, err
			}
			out := make([]complex128, p.Slots)
			for i, x := range arg(0) {
				out[i] = x * pt[i]
			}
			vals[v] = out
		case OpRelin, OpRescale, OpRotBasket:
			vals[v] = arg(0)
		case OpModSwitch, OpModRaise:
			vals[v] = arg(0)
		case OpRotate:
			vals[v] = rot(arg(0), v.K)
		case OpConjugate:
			out := make([]complex128, p.Slots)
			for i, x := range arg(0) {
				out[i] = cmplx.Conj(x)
			}
			vals[v] = out
		case OpDiagMac:
			src := arg(0) // the basket passes its source through
			out := make([]complex128, p.Slots)
			for j, k := range v.Rots {
				pt, err := v.Plains[j].Values(p.Slots)
				if err != nil {
					return nil, err
				}
				r := rot(src, k)
				for i := range out {
					out[i] += r[i] * pt[i]
				}
			}
			vals[v] = out
		case OpRotSum:
			src := arg(0)
			out := make([]complex128, p.Slots)
			for _, k := range v.Rots {
				r := rot(src, k)
				for i := range out {
					out[i] += r[i]
				}
			}
			vals[v] = out
		default:
			return nil, fmt.Errorf("fhir: interpret: unknown op %s", v.Op)
		}
	}
	return vals[p.Output], nil
}
