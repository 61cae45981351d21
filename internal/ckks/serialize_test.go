package ckks

import (
	"testing"
)

func TestCiphertextRoundTrip(t *testing.T) {
	tc := newTestContext(t, 9, 3, nil)
	vals := randomComplex(tc.params.Slots(), 30)
	pt, _ := tc.enc.Encode(vals)
	ct := tc.encr.Encrypt(pt)

	data := MarshalCiphertext(ct)
	back, err := UnmarshalCiphertext(tc.params, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level() != ct.Level() || back.Scale != ct.Scale {
		t.Fatalf("metadata changed: level %d scale %g", back.Level(), back.Scale)
	}
	if !back.C0.Equal(ct.C0) || !back.C1.Equal(ct.C1) {
		t.Fatal("polynomials changed")
	}
	// The decoded ciphertext still decrypts.
	got := tc.enc.Decode(tc.decr.Decrypt(back))
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("round-tripped ciphertext decrypts with error %g", e)
	}
}

func TestCiphertextWireSizeMatchesCostModel(t *testing.T) {
	// The serialized size should match 2·limbs·N·8 up to the small header —
	// the quantity the hw cost model charges the DTU for.
	tc := newTestContext(t, 9, 3, nil)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()))
	ct := tc.encr.Encrypt(pt)
	data := MarshalCiphertext(ct)
	payload := 2 * (ct.Level() + 1) * tc.params.N() * 8
	if len(data) < payload || len(data) > payload+64 {
		t.Fatalf("wire size %d, payload %d", len(data), payload)
	}
}

func TestPlaintextRoundTrip(t *testing.T) {
	tc := newTestContext(t, 8, 2, nil)
	vals := randomComplex(tc.params.Slots(), 31)
	pt, _ := tc.enc.Encode(vals)
	data := MarshalPlaintext(pt)
	back, err := UnmarshalPlaintext(tc.params, data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Value.Equal(pt.Value) || back.Scale != pt.Scale {
		t.Fatal("plaintext changed")
	}
}

func TestUnmarshalRejectsCorruptData(t *testing.T) {
	tc := newTestContext(t, 8, 2, nil)
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()))
	ct := tc.encr.Encrypt(pt)
	data := MarshalCiphertext(ct)
	// Header: magic(4) N(4) level(4) domain flag(1) scale(8), then limb 0.
	const flagOff, coeffOff = 12, 21
	badFlag := append([]byte{}, data...)
	badFlag[flagOff] = 7
	unreduced := append([]byte{}, data...)
	for i := coeffOff; i < coeffOff+8; i++ {
		unreduced[i] = 0xff
	}

	cases := map[string][]byte{
		"domain flag 7": badFlag,
		"coeff >= q":    unreduced,
		"empty":         nil,
		"bad magic":     append([]byte{'X'}, data[1:]...),
		"truncated":     data[:len(data)/3],
		"trailing":      append(append([]byte{}, data...), 1, 2, 3),
		"pt as ct":      MarshalPlaintext(pt),
		"wrong ring":    nil,
	}
	for name, d := range cases {
		if name == "wrong ring" {
			other := TestParameters(9, 2)
			if _, err := UnmarshalCiphertext(other, data); err == nil {
				t.Fatal("wrong ring: expected error")
			}
			continue
		}
		if _, err := UnmarshalCiphertext(tc.params, d); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Corrupt the level field beyond the max.
	bad := append([]byte{}, data...)
	bad[8] = 200
	if _, err := UnmarshalCiphertext(tc.params, bad); err == nil {
		t.Fatal("expected level-range error")
	}
}
