// Package sig provides the digital-signature substrate required by the
// arbitrary-failure algorithm of Section 6 (paper Figure 5).
//
// The paper assumes the writer digitally signs each (timestamp, value) pair
// [Rivest, Shamir, Adleman 1978] and relies on exactly two properties:
//
//	Authentication: readers can check that a value returned by a server was
//	in fact written by the writer.
//	Unforgeability: it is impossible to forge the writer's signature.
//
// We substitute Ed25519 (crypto/ed25519, standard library) for RSA; both
// properties carry over unchanged. The initial register value ⊥ at timestamp
// 0 is, as in the paper, not signed: verifiers accept timestamp 0 with an
// empty signature.
package sig

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by this package.
var (
	// ErrBadSignature indicates a signature that does not verify.
	ErrBadSignature = errors.New("sig: signature verification failed")
	// ErrNoSigner indicates an attempt to sign without a private key.
	ErrNoSigner = errors.New("sig: signer has no private key")
)

// Signer holds the writer's private key and signs timestamp/value triples.
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// Verifier holds the writer's public key and verifies signed triples. A zero
// Verifier (no key) accepts nothing but timestamp 0.
type Verifier struct {
	pub ed25519.PublicKey
}

// KeyPair bundles the writer's signer with the verifier distributed to
// readers and servers.
type KeyPair struct {
	Signer   *Signer
	Verifier Verifier
}

// NewKeyPair generates a fresh writer key pair from the given entropy source
// (nil means crypto/rand.Reader).
func NewKeyPair(entropy io.Reader) (KeyPair, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return KeyPair{}, fmt.Errorf("sig: generate key: %w", err)
	}
	return KeyPair{
		Signer:   &Signer{priv: priv, pub: pub},
		Verifier: Verifier{pub: pub},
	}, nil
}

// MustKeyPair is NewKeyPair with a panic on failure, for tests and examples.
func MustKeyPair() KeyPair {
	kp, err := NewKeyPair(nil)
	if err != nil {
		panic(err)
	}
	return kp
}

// PublicKey returns the verifier's raw public key bytes (for distribution to
// servers and readers over a separate trusted channel, as the paper assumes).
func (v Verifier) PublicKey() []byte {
	out := make([]byte, len(v.pub))
	copy(out, v.pub)
	return out
}

// VerifierFromPublicKey reconstructs a Verifier from raw public key bytes.
func VerifierFromPublicKey(pub []byte) (Verifier, error) {
	if len(pub) != ed25519.PublicKeySize {
		return Verifier{}, fmt.Errorf("sig: bad public key length %d", len(pub))
	}
	key := make(ed25519.PublicKey, ed25519.PublicKeySize)
	copy(key, pub)
	return Verifier{pub: key}, nil
}

// VerifierFromHex rebuilds a verifier from a hex-encoded public key,
// tolerating surrounding whitespace and an optional 0x prefix. It is the
// single parser behind every CLI key flag, so the accepted formats cannot
// drift between binaries.
func VerifierFromHex(hexKey string) (Verifier, error) {
	raw, err := hex.DecodeString(strings.TrimPrefix(strings.TrimSpace(hexKey), "0x"))
	if err != nil {
		return Verifier{}, fmt.Errorf("sig: decode hex public key: %w", err)
	}
	return VerifierFromPublicKey(raw)
}

// SignKeyed produces the writer's signature over the (key, ts, cur, prev)
// tuple using the canonical byte encoding of wire.KeyedSignedBytes. The
// register key is part of the signed bytes so that values signed for one
// register of a multi-register deployment cannot be replayed into another.
func (s *Signer) SignKeyed(key string, ts types.Timestamp, cur, prev types.Value) ([]byte, error) {
	if s == nil || len(s.priv) == 0 {
		return nil, ErrNoSigner
	}
	return ed25519.Sign(s.priv, wire.KeyedSignedBytes(key, ts, cur, prev)), nil
}

// Sign is SignKeyed for the default register (empty key).
func (s *Signer) Sign(ts types.Timestamp, cur, prev types.Value) ([]byte, error) {
	return s.SignKeyed("", ts, cur, prev)
}

// MustSign is Sign with a panic on failure; signing can only fail if the
// signer was constructed without a key, which is a programming error.
func (s *Signer) MustSign(ts types.Timestamp, cur, prev types.Value) []byte {
	sigBytes, err := s.Sign(ts, cur, prev)
	if err != nil {
		panic(err)
	}
	return sigBytes
}

// MustSignKeyed is SignKeyed with a panic on failure.
func (s *Signer) MustSignKeyed(key string, ts types.Timestamp, cur, prev types.Value) []byte {
	sigBytes, err := s.SignKeyed(key, ts, cur, prev)
	if err != nil {
		panic(err)
	}
	return sigBytes
}

// Verifier returns the verifier matching this signer's public key.
func (s *Signer) Verifier() Verifier { return Verifier{pub: s.pub} }

// VerifyKeyed checks the writer's signature over the (key, ts, cur, prev)
// tuple. Timestamp 0 (the initial value ⊥) is accepted with an empty
// signature and bottom values, mirroring the paper's convention that the
// initial value is not signed by the writer; this holds for every register
// key, since every register starts at ⊥.
func (v Verifier) VerifyKeyed(key string, ts types.Timestamp, cur, prev types.Value, signature []byte) error {
	if ts == types.InitialTimestamp {
		if len(signature) == 0 && cur.IsBottom() && prev.IsBottom() {
			return nil
		}
		return fmt.Errorf("%w: non-empty signature or value at timestamp 0", ErrBadSignature)
	}
	if len(v.pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: verifier has no public key", ErrBadSignature)
	}
	if len(signature) != ed25519.SignatureSize {
		return fmt.Errorf("%w: bad signature length %d", ErrBadSignature, len(signature))
	}
	if !ed25519.Verify(v.pub, wire.KeyedSignedBytes(key, ts, cur, prev), signature) {
		return ErrBadSignature
	}
	return nil
}

// Verify is VerifyKeyed for the default register (empty key).
func (v Verifier) Verify(ts types.Timestamp, cur, prev types.Value, signature []byte) error {
	return v.VerifyKeyed("", ts, cur, prev, signature)
}

// VerifyMessage checks the WriterSig carried by a protocol message against
// the (Key, TS, Cur, Prev) tuple it carries.
func (v Verifier) VerifyMessage(m *wire.Message) error {
	return v.VerifyKeyed(m.Key, m.TS, m.Cur, m.Prev, m.WriterSig)
}
