package adversary

import (
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/wire"
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
// strawman: ask, then take the maximum.
func naiveReaderFor(cfg protoutil.ClientConfig, node transport.Node) (*protoutil.Reader, error) {
	return protoutil.NewReader(cfg, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "adversary: naive read", Need: cfg.Quorum.AckQuorum(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, cfg.Key),
		Finish: func(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
			_, best, _ := protoutil.MaxTimestamp(acks)
			c.Result = protoutil.ReadResult{Value: best.Msg.Cur.Clone(), Timestamp: best.Msg.TS, RoundTrips: 1}
			return false, nil
		},
	})
}
