package ckks

import (
	"fmt"
	"testing"

	"hydra/internal/ring"
)

// The deferred ModDown commutes exactly with the Q-basis fold:
// (P·τ(c0) + acc0 − rem)/P = τ(c0) + (acc0 − rem)/P, because the folded term
// is an exact multiple of P and leaves the P-row untouched. A single rotation
// through the extended basis must therefore be bit-identical to Rotate.
func TestRotateExtBitIdenticalToRotate(t *testing.T) {
	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, 6, 3, rots)
	vals := randomComplex(tc.params.Slots(), 11)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	for _, rot := range append([]int{0}, rots...) {
		got := tc.eval.ModDownExt(tc.eval.RotateHoistedExt(ct, []int{rot})[rot])
		want := tc.eval.Rotate(ct, rot)
		if err := ctBitIdentical(got, want); err != nil {
			t.Errorf("rot %d: extended-basis path differs from Rotate: %v", rot, err)
		}
	}
}

// Multiplying a lifted ciphertext by an extended plaintext and folding back
// down is exact: the lift's P-row is zero, so the ModDown subtracts nothing
// and the result must be bit-identical to MulPlain. This also pins
// EncodeExtAtLevel's Q-rows to EncodeAtLevel's.
func TestMulPlainExtAccBitIdenticalToMulPlain(t *testing.T) {
	tc := newTestContext(t, 6, 3, []int{1})
	vals := randomComplex(tc.params.Slots(), 12)
	weights := randomComplex(tc.params.Slots(), 13)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	lvl := ct.Level()
	scale := tc.params.DefaultScale()

	wPlain, err := tc.enc.EncodeAtLevel(weights, scale, lvl)
	if err != nil {
		t.Fatal(err)
	}
	wExt, err := tc.enc.EncodeExtAtLevel(weights, scale, lvl)
	if err != nil {
		t.Fatal(err)
	}

	acc := tc.eval.NewExtAccumulator(lvl, ct.Scale*scale)
	lift := tc.eval.RotateHoistedExt(ct, []int{0})[0]
	tc.eval.MulPlainExtAcc([]*ExtCiphertext{lift}, []*ExtPlaintext{wExt}, acc)
	tc.eval.ReleaseExt(lift)
	got := tc.eval.ModDownExt(acc)

	want := tc.eval.MulPlain(ct, wPlain)
	if err := ctBitIdentical(got, want); err != nil {
		t.Fatalf("extended-basis plaintext product differs from MulPlain: %v", err)
	}
}

// Folding several hoisted rotations in the extended basis with one closing
// ModDown must decrypt to the same value as summing per-rotation Rotate
// results; the single deferred rounding only shrinks the error.
func TestExtFoldedRotationsDecryptEqual(t *testing.T) {
	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, 6, 3, rots)
	vals := randomComplex(tc.params.Slots(), 14)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	exts := tc.eval.RotateHoistedExt(ct, rots)
	acc := exts[rots[0]]
	for _, rot := range rots[1:] {
		tc.eval.AddExtAcc(exts[rot], acc)
		tc.eval.ReleaseExt(exts[rot])
	}
	got := tc.eval.ModDownExt(acc)

	want := tc.eval.Rotate(ct, rots[0])
	for _, rot := range rots[1:] {
		tc.eval.AddAcc(tc.eval.Rotate(ct, rot), want)
	}

	gotVals := tc.enc.Decode(tc.decr.Decrypt(got))
	wantVals := tc.enc.Decode(tc.decr.Decrypt(want))
	if e := maxErr(gotVals, wantVals); e > 1e-6 {
		t.Fatalf("deferred-ModDown fold differs from per-rotation reference by %g", e)
	}
}

// Serial and parallel scheduling of the extended-basis path must agree
// bitwise, like every other evaluator operation.
func TestParallelSerialDifferentialExt(t *testing.T) {
	old := ring.MaxWorkers()
	ring.SetMaxWorkers(4)
	defer ring.SetMaxWorkers(old)
	defer ring.SetSerial(false)

	rots := []int{1, 2, 5, -1}
	for _, c := range []struct{ logN, levels int }{{4, 2}, {6, 3}} {
		t.Run(fmt.Sprintf("logN=%d", c.logN), func(t *testing.T) {
			tc := newTestContext(t, c.logN, c.levels, rots)
			vals := randomComplex(tc.params.Slots(), 15)
			pt, err := tc.enc.Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			ct := tc.encr.Encrypt(pt)
			wExt, err := tc.enc.EncodeExtAtLevel(vals, tc.params.DefaultScale(), ct.Level())
			if err != nil {
				t.Fatal(err)
			}

			fold := func() *Ciphertext {
				exts := tc.eval.RotateHoistedExt(ct, rots)
				acc := tc.eval.NewExtAccumulator(ct.Level(), ct.Scale*wExt.Scale)
				for _, rot := range rots {
					tc.eval.MulPlainExtAcc([]*ExtCiphertext{exts[rot]}, []*ExtPlaintext{wExt}, acc)
					tc.eval.ReleaseExt(exts[rot])
				}
				return tc.eval.ModDownExt(acc)
			}
			diffOp(t, "ExtFold", fold)
		})
	}
}
