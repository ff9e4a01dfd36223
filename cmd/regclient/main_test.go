package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastread/internal/sig"
	"fastread/internal/types"
)

func TestSeedReaderDeterministicKeys(t *testing.T) {
	s1, err := signerFromHex("aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := signerFromHex("aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899")
	if err != nil {
		t.Fatal(err)
	}
	sig1 := s1.MustSign(1, types.Value("v"), nil)
	// The same seed must produce the same key pair, so signatures verify
	// under the other signer's verifier.
	if err := s2.Verifier().Verify(1, types.Value("v"), nil, sig1); err != nil {
		t.Errorf("signature from identical seed did not verify: %v", err)
	}
	if _, err := signerFromHex(""); err == nil {
		t.Error("empty writer key accepted")
	}
	if _, err := signerFromHex("zz"); err == nil {
		t.Error("invalid hex accepted")
	}
}

func TestVerifierFromHex(t *testing.T) {
	kp := sig.MustKeyPair()
	hexKey := ""
	for _, b := range kp.Verifier.PublicKey() {
		hexKey += string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xf])
	}
	v, err := verifierFromHex(hexKey)
	if err != nil {
		t.Fatal(err)
	}
	signature := kp.Signer.MustSign(2, types.Value("x"), nil)
	if err := v.Verify(2, types.Value("x"), nil, signature); err != nil {
		t.Errorf("verifier rejected valid signature: %v", err)
	}
	if _, err := verifierFromHex(""); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := verifierFromHex("abcd"); err == nil {
		t.Error("short key accepted")
	}
}

func TestPipelinedBenchWindow(t *testing.T) {
	const ops, depth = 20, 4
	resolved := make([]chan struct{}, ops)
	for i := range resolved {
		resolved[i] = make(chan struct{})
		close(resolved[i]) // resolve immediately; the window still fills to depth
	}
	inFlight := 0
	maxInFlight := 0
	recorder, hist, err := pipelinedBench(context.Background(), ops, depth, time.Second,
		func(_ context.Context, i int) (func(context.Context) error, error) {
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			ch := resolved[i]
			return func(context.Context) error {
				<-ch
				inFlight--
				return nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if recorder.Count() != ops {
		t.Errorf("recorded %d latencies, want %d", recorder.Count(), ops)
	}
	if maxInFlight > depth {
		t.Errorf("window grew to %d, depth is %d", maxInFlight, depth)
	}
	if hist.Count() != ops {
		t.Errorf("histogram has %d samples, want %d", hist.Count(), ops)
	}
	if hist.Max() > depth-1 {
		t.Errorf("histogram max %d; at submit at most depth-1=%d ops can be in flight", hist.Max(), depth-1)
	}

	// A failing operation surfaces with its index.
	_, _, err = pipelinedBench(context.Background(), 3, 2, time.Second,
		func(_ context.Context, i int) (func(context.Context) error, error) {
			return func(context.Context) error {
				if i == 1 {
					return errors.New("boom")
				}
				return nil
			}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "op 1") {
		t.Errorf("err = %v, want op 1 failure", err)
	}
}

func TestFlagsParseSameBeforeAndAfterSubcommand(t *testing.T) {
	cases := [][2][]string{
		{
			{"-id", "w", "-ops", "1000", "-pipeline", "16", "-keys", "8", "bench"},
			{"-id", "w", "bench", "-ops", "1000", "-pipeline", "16", "-keys", "8"},
		},
		{
			{"-id", "w", "-rate", "2000", "-duration", "3s", "-admission", "1ms", "-zipf", "0.9", "loadgen"},
			{"-id", "w", "loadgen", "-rate", "2000", "-duration", "3s", "-admission", "1ms", "-zipf", "0.9"},
		},
		{
			{"-id", "r2", "-rates", "500,1000", "-knee-p99", "20ms", "loadgen"},
			{"-id", "r2", "loadgen", "-rates", "500,1000", "-knee-p99", "20ms"},
		},
		{
			// Split across the subcommand: some flags before, some after.
			{"-id", "w", "-keys", "4", "loadgen", "-rate", "750", "-arrival", "fixed"},
			{"-id", "w", "loadgen", "-keys", "4", "-rate", "750", "-arrival", "fixed"},
		},
	}
	for _, tc := range cases {
		before, err := parseCLI(tc[0])
		if err != nil {
			t.Fatalf("parseCLI(%v): %v", tc[0], err)
		}
		after, err := parseCLI(tc[1])
		if err != nil {
			t.Fatalf("parseCLI(%v): %v", tc[1], err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Errorf("flag order changed the parse:\n before %+v\n after  %+v", before, after)
		}
		if before.configLine() != after.configLine() {
			t.Errorf("config echo differs:\n before %s\n after  %s", before.configLine(), after.configLine())
		}
	}
}

// TestByzAliasIsUnknownFlag: -protocol fast-byz is the one spelling of the
// arbitrary-failure variant.
func TestByzAliasIsUnknownFlag(t *testing.T) {
	if _, err := parseCLI([]string{"-byz", "read"}); err == nil || !strings.Contains(err.Error(), "not defined: -byz") {
		t.Errorf("parseCLI(-byz read) = %v, want an unknown-flag error", err)
	}
}

func TestConfigLineEchoesActiveConfig(t *testing.T) {
	c, err := parseCLI([]string{"-id", "w", "-S", "5", "-keys", "8", "loadgen", "-rate", "1500", "-admission", "2ms"})
	if err != nil {
		t.Fatal(err)
	}
	line := c.configLine()
	for _, want := range []string{"cmd=loadgen", "id=w", "S=5", "keys=8", "rates=1500", "admission=2ms", "arrival=poisson"} {
		if !strings.Contains(line, want) {
			t.Errorf("config line %q missing %q", line, want)
		}
	}
	b, err := parseCLI([]string{"-id", "r1", "bench", "-ops", "50", "-pipeline", "4"})
	if err != nil {
		t.Fatal(err)
	}
	bline := b.configLine()
	for _, want := range []string{"cmd=bench", "id=r1", "pipeline=4"} {
		if !strings.Contains(bline, want) {
			t.Errorf("bench config line %q missing %q", bline, want)
		}
	}
	if strings.Contains(bline, "rates=") {
		t.Errorf("bench config line %q leaked loadgen-only fields", bline)
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("500, 1000,2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 500 || got[1] != 1000 || got[2] != 2000 {
		t.Errorf("parseRates = %v", got)
	}
	for _, bad := range []string{"", "x", "-5", "0", "100,,x"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) succeeded, want error", bad)
		}
	}
}

// TestGroupShapeInheritsPerField repeats internal/topology's four rows
// against this binary's call of the shared resolver: whatever a topology
// group leaves zero falls back to the -S/-t/-b flags field by field, exactly
// as in cmd/regserver and the in-process Store. Every resolved shape here is
// beyond the fast protocol's bound at R=2, so run refuses it before opening a
// socket and the refusal spells the shape out.
func TestGroupShapeInheritsPerField(t *testing.T) {
	for _, tc := range []struct{ name, group, want string }{
		{"none", `{"name": "g"}`, "S=4 t=1"},
		{"S only", `{"name": "g", "servers": 3}`, "S=3 t=1"},
		{"t only", `{"name": "g", "faulty": 2}`, "S=4 t=2"},
		{"all set", `{"name": "g", "servers": 5, "faulty": 2}`, "S=5 t=2"},
	} {
		topo := filepath.Join(t.TempDir(), "topo.json")
		if err := os.WriteFile(topo, []byte(`{"groups": [`+tc.group+`]}`), 0o600); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-id", "r1", "-groups", topo, "-protocol", "fast", "-S", "4", "-t", "1", "-R", "2", "read"})
		if err == nil || !strings.Contains(err.Error(), `group "g"`) || !strings.Contains(err.Error(), tc.want+" ") {
			t.Errorf("%s: run = %v, want a refusal of group \"g\" at %s", tc.name, err, tc.want)
		}
	}
}
