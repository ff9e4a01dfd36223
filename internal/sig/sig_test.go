package sig

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"fastread/internal/types"
	"fastread/internal/wire"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := MustKeyPair()
	sigBytes, err := kp.Signer.Sign(3, types.Value("v3"), types.Value("v2"))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := kp.Verifier.Verify(3, types.Value("v3"), types.Value("v2"), sigBytes); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedFields(t *testing.T) {
	kp := MustKeyPair()
	sigBytes := kp.Signer.MustSign(3, types.Value("v3"), types.Value("v2"))

	if err := kp.Verifier.Verify(4, types.Value("v3"), types.Value("v2"), sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered ts: err = %v, want ErrBadSignature", err)
	}
	if err := kp.Verifier.Verify(3, types.Value("x"), types.Value("v2"), sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered cur: err = %v", err)
	}
	if err := kp.Verifier.Verify(3, types.Value("v3"), types.Value("y"), sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered prev: err = %v", err)
	}
	bad := append([]byte(nil), sigBytes...)
	bad[0] ^= 0xFF
	if err := kp.Verifier.Verify(3, types.Value("v3"), types.Value("v2"), bad); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered signature: err = %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	kp1 := MustKeyPair()
	kp2 := MustKeyPair()
	sigBytes := kp1.Signer.MustSign(1, types.Value("v"), types.Bottom())
	if err := kp2.Verifier.Verify(1, types.Value("v"), types.Bottom(), sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Errorf("verify with wrong key: err = %v, want ErrBadSignature", err)
	}
}

func TestInitialTimestampUnsigned(t *testing.T) {
	kp := MustKeyPair()
	if err := kp.Verifier.Verify(0, types.Bottom(), types.Bottom(), nil); err != nil {
		t.Errorf("timestamp 0 with empty signature should verify, got %v", err)
	}
	if err := kp.Verifier.Verify(0, types.Value("x"), types.Bottom(), nil); err == nil {
		t.Error("timestamp 0 with a non-⊥ value must not verify")
	}
	if err := kp.Verifier.Verify(0, types.Bottom(), types.Bottom(), []byte{1}); err == nil {
		t.Error("timestamp 0 with a non-empty signature must not verify")
	}
}

func TestSignerWithoutKeyFails(t *testing.T) {
	var s *Signer
	if _, err := s.Sign(1, types.Value("v"), nil); !errors.Is(err, ErrNoSigner) {
		t.Errorf("nil signer: err = %v, want ErrNoSigner", err)
	}
	empty := &Signer{}
	if _, err := empty.Sign(1, types.Value("v"), nil); !errors.Is(err, ErrNoSigner) {
		t.Errorf("empty signer: err = %v, want ErrNoSigner", err)
	}
}

func TestVerifierWithoutKeyRejectsEverything(t *testing.T) {
	kp := MustKeyPair()
	sigBytes := kp.Signer.MustSign(1, types.Value("v"), nil)
	var v Verifier
	if err := v.Verify(1, types.Value("v"), nil, sigBytes); err == nil {
		t.Error("zero verifier accepted a signature")
	}
	if err := v.Verify(0, types.Bottom(), types.Bottom(), nil); err != nil {
		t.Errorf("zero verifier should still accept timestamp 0, got %v", err)
	}
}

func TestPublicKeyDistribution(t *testing.T) {
	kp := MustKeyPair()
	pub := kp.Verifier.PublicKey()
	v2, err := VerifierFromPublicKey(pub)
	if err != nil {
		t.Fatalf("VerifierFromPublicKey: %v", err)
	}
	sigBytes := kp.Signer.MustSign(2, types.Value("v2"), types.Value("v1"))
	if err := v2.Verify(2, types.Value("v2"), types.Value("v1"), sigBytes); err != nil {
		t.Errorf("reconstructed verifier rejected a valid signature: %v", err)
	}
	if _, err := VerifierFromPublicKey([]byte{1, 2, 3}); err == nil {
		t.Error("short public key accepted")
	}
	// Mutating the returned slice must not affect the verifier.
	pub[0] ^= 0xFF
	if err := kp.Verifier.Verify(2, types.Value("v2"), types.Value("v1"), sigBytes); err != nil {
		t.Errorf("verifier state was aliased by PublicKey(): %v", err)
	}
}

func TestVerifyMessage(t *testing.T) {
	kp := MustKeyPair()
	m := &wire.Message{
		Op:        wire.OpReadAck,
		TS:        5,
		Cur:       types.Value("v5"),
		Prev:      types.Value("v4"),
		WriterSig: kp.Signer.MustSign(5, types.Value("v5"), types.Value("v4")),
	}
	if err := kp.Verifier.VerifyMessage(m); err != nil {
		t.Errorf("VerifyMessage: %v", err)
	}
	m.TS = 6
	if err := kp.Verifier.VerifyMessage(m); err == nil {
		t.Error("VerifyMessage accepted a message with a mismatched timestamp")
	}
}

func TestSignerVerifierPairMatches(t *testing.T) {
	kp := MustKeyPair()
	v := kp.Signer.Verifier()
	sigBytes := kp.Signer.MustSign(9, types.Value("x"), nil)
	if err := v.Verify(9, types.Value("x"), nil, sigBytes); err != nil {
		t.Errorf("Signer.Verifier() mismatch: %v", err)
	}
}

// Property: a signature only verifies for the exact triple that was signed.
func TestForgedTripleNeverVerifies(t *testing.T) {
	kp := MustKeyPair()
	f := func(ts uint16, cur, prev, otherCur []byte, bump uint8) bool {
		realTS := types.Timestamp(ts) + 1
		sigBytes := kp.Signer.MustSign(realTS, cur, prev)
		if kp.Verifier.Verify(realTS, cur, prev, sigBytes) != nil {
			return false
		}
		// A different timestamp must not verify.
		if kp.Verifier.Verify(realTS+types.Timestamp(bump)+1, cur, prev, sigBytes) == nil {
			return false
		}
		// A different current value must not verify (unless it is equal).
		if string(otherCur) != string(cur) {
			if kp.Verifier.Verify(realTS, otherCur, prev, sigBytes) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVerifierFromHex(t *testing.T) {
	kp := MustKeyPair()
	hexKey := hex.EncodeToString(kp.Verifier.PublicKey())
	for _, form := range []string{hexKey, "0x" + hexKey, "  " + hexKey + "\n"} {
		v, err := VerifierFromHex(form)
		if err != nil {
			t.Fatalf("VerifierFromHex(%q): %v", form, err)
		}
		signature := kp.Signer.MustSign(1, types.Value("x"), nil)
		if err := v.Verify(1, types.Value("x"), nil, signature); err != nil {
			t.Errorf("round-tripped verifier rejected a valid signature: %v", err)
		}
	}
	if _, err := VerifierFromHex("zz"); err == nil {
		t.Error("invalid hex accepted")
	}
	if _, err := VerifierFromHex("abcd"); err == nil {
		t.Error("short key accepted")
	}
}

func TestSignerFromHex(t *testing.T) {
	seed := bytes.Repeat([]byte{0xab}, ed25519.SeedSize)
	// A 32-byte seed is the key pair ed25519 generates from those bytes.
	kp, err := NewKeyPair(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := SignerFromHex("0x" + hex.EncodeToString(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Verifier().PublicKey(), kp.Verifier.PublicKey()) {
		t.Error("SignerFromHex derived another key pair from the same seed")
	}
	for _, bad := range []string{"", "ab", hex.EncodeToString(append(seed, 0)), "zz"} {
		if _, err := SignerFromHex(bad); err == nil {
			t.Errorf("SignerFromHex(%q) accepted a seed that is not %d bytes of hex", bad, ed25519.SeedSize)
		}
	}
}
