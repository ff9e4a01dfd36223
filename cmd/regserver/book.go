package main

import (
	"fmt"

	"fastread/internal/sig"
)

// ParseVerifier decodes a hex-encoded ed25519 public key.
func ParseVerifier(hexKey string) (sig.Verifier, error) {
	if hexKey == "" {
		return sig.Verifier{}, fmt.Errorf("signature-verifying protocols require -writer-pubkey")
	}
	v, err := sig.VerifierFromHex(hexKey)
	if err != nil {
		return sig.Verifier{}, fmt.Errorf("-writer-pubkey: %w", err)
	}
	return v, nil
}
