package main

import (
	"fmt"

	"fastread/internal/sig"
)

// signerFromHex rebuilds the writer's signer from a hex-encoded 32-byte
// ed25519 seed.
func signerFromHex(keyHex string) (*sig.Signer, error) {
	if keyHex == "" {
		return nil, fmt.Errorf("the signing writer requires -writer-key (hex seed)")
	}
	return sig.SignerFromHex(keyHex)
}

// verifierFromHex rebuilds a verifier from a hex-encoded public key.
func verifierFromHex(keyHex string) (sig.Verifier, error) {
	if keyHex == "" {
		return sig.Verifier{}, fmt.Errorf("the verifying reader requires -writer-key (hex public key)")
	}
	return sig.VerifierFromHex(keyHex)
}
