package ring

import "sync"

// Dispatch seam for the codegen-specialized NTT kernels.
//
// cmd/hydra-genkernels emits ntt_gen.go: one fully specialized forward and
// inverse kernel per shipped ring degree (see shipped.go), with every stage's
// block count and stride a compile-time literal, the bit-reverse permutation
// fused into the first (inverse) or last (forward) butterfly pass, and — for
// the forward — the correction-free lazy schedule described at
// GeneratedQBound. The kernels register themselves here from init(), and
// NewNTTTable turns them on per table when the degree and modulus qualify.
//
// Like the reference switch (SetReference), the generated switch is a
// bit-identity seam, not a semantics switch: every kernel family produces
// identical canonical output, pinned by the differential tests in
// ntt_gen_test.go and by the conformance matrix, so flipping dispatch can
// never change a result bit. SetGenerated(false) recovers the exact
// pre-specialization execution (the generic merged kernel), which is what
// the per-ciphertext-dispatch benchmark baselines run.

// generatedKernel is one specialized transform: it reads a, may use the
// N-word scratch row as a ping-pong buffer, and leaves the result in a.
type generatedKernel func(t *NTTTable, a, scratch []uint64)

type generatedKernelPair struct {
	forward generatedKernel
	inverse generatedKernel
}

var generatedKernels = map[int]generatedKernelPair{}

// registerGeneratedKernels is called from ntt_gen.go's init. Registering a
// degree twice is a build-wiring bug, not a runtime condition.
func registerGeneratedKernels(logN int, fwd, inv generatedKernel) {
	if _, dup := generatedKernels[logN]; dup {
		panic("ring: duplicate generated kernel registration")
	}
	generatedKernels[logN] = generatedKernelPair{forward: fwd, inverse: inv}
}

// GeneratedAvailable reports whether a specialized kernel pair exists for
// this table's degree and modulus (degree in the shipped set, q below
// GeneratedQBound).
func (t *NTTTable) GeneratedAvailable() bool {
	_, ok := generatedKernels[t.LogN]
	return ok && t.Mod.Q < GeneratedQBound
}

// SetGenerated selects whether Forward/Inverse dispatch to the specialized
// generated kernels (the default when GeneratedAvailable) or to the generic
// merged kernel. Turning it on for a table with no qualifying kernel is a
// no-op. SetReference takes precedence over both. Like SetReference, set it
// before the table is shared with concurrent users.
func (t *NTTTable) SetGenerated(on bool) {
	t.useGenerated = on && t.GeneratedAvailable()
}

// initGenerated wires a freshly built table to its specialized kernels, if
// any. Called from NewNTTTable.
func (t *NTTTable) initGenerated() {
	t.useGenerated = t.GeneratedAvailable()
	n := t.N
	t.genScratch = &sync.Pool{New: func() any {
		row := make([]uint64, n)
		return &row
	}}
}

// forwardGenerated runs the specialized forward kernel with a pooled
// ping-pong row. The scratch row never escapes the call.
func (t *NTTTable) forwardGenerated(a []uint64) {
	k := generatedKernels[t.LogN]
	sp := t.genScratch.Get().(*[]uint64)
	k.forward(t, a, *sp)
	t.genScratch.Put(sp)
}

// inverseGenerated runs the specialized inverse kernel with a pooled
// ping-pong row.
func (t *NTTTable) inverseGenerated(a []uint64) {
	k := generatedKernels[t.LogN]
	sp := t.genScratch.Get().(*[]uint64)
	k.inverse(t, a, *sp)
	t.genScratch.Put(sp)
}
