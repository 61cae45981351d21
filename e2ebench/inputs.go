package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hydra/internal/fhir"
)

// BSGS shape shared by both FHE workloads: 4 baby steps × 4 giant steps over
// a dense set of 16 diagonals.
const (
	babySteps  = 4
	giantSteps = 4
	inputName  = "x"
)

// Stream tags keep the seed-derived random streams of one run independent.
const (
	streamWeights = iota + 1
	streamInputs
	streamArrivals
	streamTenants
	streamKeys
	streamEncrypt
)

// newRand returns the deterministic random stream (seed, stream, index).
func newRand(seed int64, stream, index int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<48 ^ uint64(index)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// modelWeights draws the 16 BSGS diagonals of one tenant model, scaled so the
// product keeps O(1) slot magnitudes.
func modelWeights(seed int64, tenant, slots int) [][]complex128 {
	r := newRand(seed, streamWeights, tenant)
	diags := make([][]complex128, babySteps*giantSteps)
	for d := range diags {
		diags[d] = make([]complex128, slots)
		for t := range diags[d] {
			diags[d][t] = complex((2*r.Float64()-1)/float64(len(diags)), 0)
		}
	}
	return diags
}

// jobInput draws the plaintext input vector of one job in [-1, 1).
func jobInput(seed int64, job, slots int) []complex128 {
	r := newRand(seed, streamInputs, job)
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(2*r.Float64()-1, 0)
	}
	return v
}

// arrival is one open-loop submission: when it is due relative to the start
// of the phase, and which tenant's model it runs.
type arrival struct {
	At     time.Duration
	Tenant int
}

// arrivalSchedule draws open-loop arrivals at rate jobs/s over window: one
// arrival placed uniformly at random in each 1/rate slot (jittered periodic
// arrivals). Every seed offers the same load with a different arrival
// pattern; bursts stay short, so the queue the schedule builds, and with it
// the latency tail, does not swing from seed to seed the way the long
// bursts of a Poisson process do. Each arrival runs a tenant drawn
// uniformly from tenants models.
func arrivalSchedule(seed int64, rate float64, window time.Duration, tenants int) []arrival {
	ra := newRand(seed, streamArrivals, 0)
	rt := newRand(seed, streamTenants, 0)
	n := int(math.Round(rate * window.Seconds()))
	slot := time.Duration(float64(time.Second) / rate)
	out := make([]arrival, n)
	for i := range out {
		at := time.Duration(i)*slot + time.Duration(ra.Float64()*float64(slot))
		out[i] = arrival{At: at, Tenant: rt.Intn(tenants)}
	}
	return out
}

// bsgsLayer emits a dense baby-step/giant-step matrix-vector product:
// Σ_g rot(Σ_j rot(x, j) ⊙ diag[g·bs+j], g·bs).
func bsgsLayer(b *fhir.Builder, x *fhir.Value, diags [][]complex128, key string) *fhir.Value {
	var acc *fhir.Value
	for g := 0; g < giantSteps; g++ {
		var inner *fhir.Value
		for j := 0; j < babySteps; j++ {
			d := g*babySteps + j
			term := b.MulPlain(b.Rotate(x, j), b.PlainVec(fmt.Sprintf("%s:%d:%d", key, g, j), diags[d]))
			if inner == nil {
				inner = term
			} else {
				inner = b.Add(inner, term)
			}
		}
		rotated := b.Rotate(inner, g*babySteps)
		if acc == nil {
			acc = rotated
		} else {
			acc = b.Add(acc, rotated)
		}
	}
	return acc
}

// bsgsProgram is the source program of one fhe-bsgs-open tenant model.
func bsgsProgram(slots int, diags [][]complex128, key string) (*fhir.Program, error) {
	b := fhir.NewBuilder(slots)
	b.Output(bsgsLayer(b, b.Input(inputName), diags, key))
	return b.Build()
}

// resnetProgram is the source program of the fhe-resnet-closed model:
// y = act(W·x) + x with a dense BSGS convolution and the degree-3 Horner
// activation ((c3·u + c2)·u + c1)·u + c0.
func resnetProgram(slots int, diags [][]complex128, key string) (*fhir.Program, error) {
	b := fhir.NewBuilder(slots)
	x := b.Input(inputName)
	conv := bsgsLayer(b, x, diags, key)
	coeffs := []float64{0, 0.5, 0.25, -0.125}
	act := b.AddConst(b.MulConst(conv, coeffs[3]), coeffs[2])
	for i := 1; i >= 0; i-- {
		act = b.AddConst(b.Mul(act, conv), coeffs[i])
	}
	b.Output(b.Add(act, x))
	return b.Build()
}

// maxSlotError is the largest slot-wise distance between got and want over
// want's length.
func maxSlotError(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		if i >= len(got) {
			return math.Inf(1)
		}
		d := got[i] - want[i]
		if e := math.Hypot(real(d), imag(d)); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}
