package transport

import (
	"fmt"
	"maps"
	"strings"

	"fastread/internal/types"
)

// AddressBook maps process identities to their "host:port" addresses. Both
// socket backends (tcpnet, udpnet) and the cmd binaries share this one type.
type AddressBook map[types.ProcessID]string

// Clone returns a copy of the address book.
func (b AddressBook) Clone() AddressBook { return maps.Clone(b) }

// ParseAddressBook parses a comma-separated list of id=host:port pairs into
// an address book, e.g. "s1=10.0.0.1:7101,w=10.0.0.9:7200,r1=10.0.0.10:7201"
// (the cmd binaries' -book flag).
func ParseAddressBook(spec string) (AddressBook, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("an address book is required (-book id=host:port,...)")
	}
	book := make(AddressBook)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, "=", 2)
		if len(parts) != 2 || parts[1] == "" {
			return nil, fmt.Errorf("malformed address book entry %q (want id=host:port)", entry)
		}
		id, err := types.ParseProcessID(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("address book entry %q: %w", entry, err)
		}
		if _, dup := book[id]; dup {
			return nil, fmt.Errorf("duplicate address book entry for %s", id)
		}
		book[id] = strings.TrimSpace(parts[1])
	}
	if len(book) == 0 {
		return nil, fmt.Errorf("address book is empty")
	}
	return book, nil
}

// BookFromMembers converts a map from textual process ids to host:port
// addresses (a topology group's members, a public TCP/UDP transport's book)
// into an address book.
func BookFromMembers(members map[string]string) (AddressBook, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("the topology group has no members (socket transports need a per-group address book)")
	}
	book := make(AddressBook, len(members))
	for name, addr := range members {
		id, err := types.ParseProcessID(name)
		if err != nil {
			return nil, fmt.Errorf("member %q: %w", name, err)
		}
		if strings.TrimSpace(addr) == "" {
			return nil, fmt.Errorf("member %q has an empty address", name)
		}
		book[id] = strings.TrimSpace(addr)
	}
	return book, nil
}
