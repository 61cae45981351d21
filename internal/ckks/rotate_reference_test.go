package ckks

import (
	"fmt"
	"testing"

	"hydra/internal/ring"
)

// rotateReference is the classic single-hoisted rotation, kept as the oracle
// for the extended-basis core: decompose c1, run the gather-fused keyswitch
// MAC, ModDown the accumulators straight away, then add τ_k(c0) in the Q
// basis. The identity element returns a copy.
func rotateReference(ev *Evaluator, ct *Ciphertext, k uint64) *Ciphertext {
	if k == 1 {
		return ct.CopyNew()
	}
	swk := ev.rotationKey(k)
	r := ev.params.RingQP()
	lvl := ct.Level()
	perm := ring.AutomorphismNTTIndex(r.N, k)

	h := ev.decomposeExt(ct.C1)
	acc0, acc1 := ev.ksAccum(h, perm, swk)
	h.release(r)
	ks0 := ev.modDownP(acc0, h.modIdx, h.lvl)
	ks1 := ev.modDownP(acc1, h.modIdx, h.lvl)
	for jj := range acc0 {
		r.PutRow(acc0[jj])
		r.PutRow(acc1[jj])
	}

	rc0 := r.NewPoly(lvl)
	r.AutomorphismNTT(ct.C0, perm, rc0)
	r.Add(rc0, ks0, rc0)
	return &Ciphertext{C0: rc0, C1: ks1, Scale: ct.Scale}
}

// Every rotation entry point — Rotate, Conjugate, RotateHoisted and the
// ModDown of RotateHoistedExt — is built on the one extended-basis core and
// must be bit-identical to the reference at the bottom, a middle and the top
// level, for the identity, positive and negative rotations and conjugation.
func TestRotationsBitIdenticalToReference(t *testing.T) {
	rots := []int{0, 1, -1, 5}
	tc := newTestContext(t, 6, 4, rots)
	ev := tc.eval
	n := tc.params.N()
	vals := randomComplex(tc.params.Slots(), 21)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	top := tc.encr.Encrypt(pt)
	conj := ring.GaloisElementConjugate(n)

	for _, lvl := range []int{0, 2, tc.params.MaxLevel()} {
		t.Run(fmt.Sprintf("level=%d", lvl), func(t *testing.T) {
			ct := top.CopyNew()
			ct.DropLevel(top.Level() - lvl)

			check := func(name string, got *Ciphertext, k uint64) {
				t.Helper()
				if err := ctBitIdentical(got, rotateReference(ev, ct, k)); err != nil {
					t.Errorf("%s: differs from rotateReference: %v", name, err)
				}
				if got.Level() != lvl {
					t.Errorf("%s: level %d, want %d", name, got.Level(), lvl)
				}
			}

			hoisted := ev.RotateHoisted(ct, rots)
			exts := ev.RotateHoistedExt(ct, rots)
			for _, rot := range rots {
				k := ring.GaloisElementForRotation(n, rot)
				check(fmt.Sprintf("Rotate(%d)", rot), ev.Rotate(ct, rot), k)
				check(fmt.Sprintf("RotateHoisted(%d)", rot), hoisted[rot], k)
				check(fmt.Sprintf("ModDownExt(RotateHoistedExt(%d))", rot), ev.ModDownExt(exts[rot]), k)
			}

			check("Conjugate", ev.Conjugate(ct), conj)
			ev.rotateExt(ct, []uint64{conj}, func(_ int, e *ExtCiphertext) {
				check("ModDownExt(rotateExt(conj))", ev.ModDownExt(e), conj)
			})
		})
	}
}
