package ckks

// Fuzz harness for the ciphertext wire format. Cards take ciphertexts
// straight off the link, so the decoder is a trust boundary: it must never
// panic on hostile bytes, and the encoding is canonical — every buffer it
// accepts re-encodes to exactly the same bytes. The seed corpus in
// testdata/fuzz/FuzzUnmarshalCiphertext holds a valid level-0 and a valid
// top-level ciphertext for TestParameters(4, 2), plus the two corruptions
// of TestUnmarshalRejectsCorruptData (domain flag 7, a coefficient >= q).

import (
	"bytes"
	"testing"
)

func FuzzUnmarshalCiphertext(f *testing.F) {
	params := TestParameters(4, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalCiphertext(params, data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if enc := MarshalCiphertext(ct); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(enc))
		}
	})
}
