package driver

import (
	"errors"
	"testing"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
)

// fakeDriver returns a minimally complete driver for registry tests.
func fakeDriver(name string) Driver {
	return Driver{
		Name:      name,
		Validate:  func(quorum.Config) error { return nil },
		NewServer: func(ServerConfig, transport.Node) (Server, error) { return nil, nil },
		NewWriter: func(ClientConfig, transport.Node) (*protoutil.Writer, error) { return nil, nil },
		NewReader: func(ClientConfig, transport.Node) (*protoutil.Reader, error) { return nil, nil },
	}
}

func TestRegisterLookupNames(t *testing.T) {
	Register(fakeDriver("test-proto-a"))
	Register(fakeDriver("test-proto-b"))

	if _, ok := Lookup("test-proto-a"); !ok {
		t.Fatal("registered driver not found")
	}
	if _, ok := Lookup("no-such-proto"); ok {
		t.Fatal("Lookup invented a driver")
	}
	names := Names()
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		seen[n] = true
		if i > 0 && names[i-1] > n {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if !seen["test-proto-a"] || !seen["test-proto-b"] {
		t.Fatalf("Names missing registered drivers: %v", names)
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	Register(fakeDriver("test-proto-dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(fakeDriver("test-proto-dup"))
}

func TestRegisterPanicsOnIncomplete(t *testing.T) {
	d := fakeDriver("test-proto-incomplete")
	d.NewReader = nil
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete driver did not panic")
		}
	}()
	Register(d)
}

func TestMajorityValidate(t *testing.T) {
	check := MajorityValidate("abd")
	if err := check(quorum.Config{Servers: 5, Faulty: 2, Readers: 3}); err != nil {
		t.Fatalf("t < S/2 rejected: %v", err)
	}
	if err := check(quorum.Config{Servers: 4, Faulty: 2, Readers: 3}); err == nil {
		t.Fatal("t = S/2 accepted")
	}
}

func TestErrTooManyReadersIsSentinel(t *testing.T) {
	wrapped := errors.Join(ErrTooManyReaders)
	if !errors.Is(wrapped, ErrTooManyReaders) {
		t.Fatal("sentinel does not survive wrapping")
	}
}
