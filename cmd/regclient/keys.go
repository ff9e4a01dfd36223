package main

import (
	"encoding/hex"
	"fmt"
	"strings"

	"fastread/internal/sig"
)

// signerFromHex rebuilds the writer's signer from a hex-encoded ed25519 seed
// (any 32-byte seed).
func signerFromHex(keyHex string) (*sig.Signer, error) {
	if keyHex == "" {
		return nil, fmt.Errorf("the signing writer requires -writer-key (hex seed)")
	}
	// The Signer API is deliberately narrow; for the CLI we derive a key pair
	// from the seed bytes via the deterministic reader in sig.NewKeyPair.
	raw, err := hex.DecodeString(strings.TrimPrefix(keyHex, "0x"))
	if err != nil {
		return nil, err
	}
	kp, err := sig.NewKeyPair(seedReader(raw))
	if err != nil {
		return nil, err
	}
	return kp.Signer, nil
}

// verifierFromHex rebuilds a verifier from a hex-encoded public key.
func verifierFromHex(keyHex string) (sig.Verifier, error) {
	if keyHex == "" {
		return sig.Verifier{}, fmt.Errorf("the verifying reader requires -writer-key (hex public key)")
	}
	return sig.VerifierFromHex(keyHex)
}

// seedReader turns a byte slice into an io.Reader that repeats it, giving
// ed25519.GenerateKey the 32 bytes of entropy it needs deterministically.
type seedReader []byte

func (s seedReader) Read(p []byte) (int, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("empty seed")
	}
	for i := range p {
		p[i] = s[i%len(s)]
	}
	return len(p), nil
}
