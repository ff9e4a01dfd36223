package adversary

import (
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
)

// newNaiveReader builds a serial naive fast reader of the default register.
func newNaiveReader(cfg quorum.Config, node transport.Node) (*protoutil.Reader, error) {
	return naiveReaderFor(protoutil.ClientConfig{Quorum: cfg, Depth: 1}, node)
}

// naiveReaderFor builds the strawman fast reader from the paper's
// introduction, as a driver deploys it (on the deployment's key, at its
// pipeline depth): it collects S−t acknowledgements and simply returns the
// value with the highest timestamp, with no seen-set predicate and no memory
// across reads. With a single reader this is correct; with two or more
// readers the lower-bound schedule makes it violate atomicity, which is
// exactly what experiment E2 demonstrates. Its round description is the whole
// strawman: the regular register's read, asking S−t servers instead of a
// majority.
func naiveReaderFor(cfg protoutil.ClientConfig, node transport.Node) (*protoutil.Reader, error) {
	return protoutil.NewReader(cfg, node, protoutil.HighestRead("adversary: naive read", cfg.Quorum.AckQuorum(), cfg.Key))
}
