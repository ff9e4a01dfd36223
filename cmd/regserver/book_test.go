package main

import (
	"testing"

	"fastread/internal/sig"
	"fastread/internal/types"
)

func TestParseVerifier(t *testing.T) {
	if _, err := ParseVerifier("zz"); err == nil {
		t.Error("invalid hex accepted")
	}
	if _, err := ParseVerifier(""); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := ParseVerifier("abcd"); err == nil {
		t.Error("short key accepted")
	}
	kp := sig.MustKeyPair()
	hexKey := ""
	for _, b := range kp.Verifier.PublicKey() {
		hexKey += string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xf])
	}
	verifier, err := ParseVerifier(hexKey)
	if err != nil {
		t.Fatalf("ParseVerifier(valid key): %v", err)
	}
	signature := kp.Signer.MustSign(1, types.Value("x"), nil)
	if err := verifier.Verify(1, types.Value("x"), nil, signature); err != nil {
		t.Errorf("round-tripped verifier rejected a valid signature: %v", err)
	}
}
