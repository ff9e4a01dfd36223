package transport

import (
	"testing"

	"fastread/internal/types"
)

func TestParseAddressBook(t *testing.T) {
	book, err := ParseAddressBook("s1=127.0.0.1:7101, s2=127.0.0.1:7102 ,w=host:9,r1=10.0.0.2:80")
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 4 {
		t.Fatalf("len = %d, want 4", len(book))
	}
	if book[types.Server(1)] != "127.0.0.1:7101" {
		t.Errorf("s1 = %q", book[types.Server(1)])
	}
	if book[types.Writer()] != "host:9" {
		t.Errorf("w = %q", book[types.Writer()])
	}
	if book[types.Reader(1)] != "10.0.0.2:80" {
		t.Errorf("r1 = %q", book[types.Reader(1)])
	}
}

func TestParseAddressBookErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"s1",
		"s1=",
		"x9=127.0.0.1:1",
		"s1=127.0.0.1:1,s1=127.0.0.1:2",
		",",
	}
	for _, spec := range cases {
		if _, err := ParseAddressBook(spec); err == nil {
			t.Errorf("ParseAddressBook(%q) succeeded, want error", spec)
		}
	}
}
