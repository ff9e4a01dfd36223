package adversary

import (
	"context"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// naiveReader is the strawman fast reader from the paper's introduction: it
// collects S−t acknowledgements and simply returns the value with the
// highest timestamp, with no seen-set predicate and no memory across reads.
// With a single reader this is correct; with two or more readers the
// lower-bound schedule makes it violate atomicity, which is exactly what
// experiment E2 demonstrates. Its round description is the whole strawman:
// ask, then take the maximum.
type naiveReader struct {
	*protoutil.Client[protoutil.ReadResult]
}

// newNaiveReader builds a naive fast reader on the given node.
func newNaiveReader(cfg quorum.Config, node transport.Node) (*naiveReader, error) {
	cl, err := protoutil.NewClient(protoutil.ClientConfig{Quorum: cfg, Depth: 1}, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "adversary: naive read", Role: types.RoleReader, Need: cfg.AckQuorum(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, ""),
		Finish: func(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
			_, best, _ := protoutil.MaxTimestamp(acks)
			c.Result = protoutil.ReadResult{Value: best.Msg.Cur.Clone(), Timestamp: best.Msg.TS, RoundTrips: 1}
			return false, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &naiveReader{cl}, nil
}

// Read performs one naive fast read.
func (r *naiveReader) Read(ctx context.Context) (types.Value, types.Timestamp, error) {
	res, err := r.Do(ctx, nil)
	return res.Value, res.Timestamp, err
}
