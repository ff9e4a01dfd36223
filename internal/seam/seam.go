// Package seam hands the simulator what the public API does not offer: a
// Store attached to an in-memory network its caller built and keeps, so the
// caller can step that network's clock, isolate its processes and hold its
// links. Package fastread fills it at init; internal/sim is its caller.
package seam

import "fastread/internal/transport"

// InMemory returns a fastread.Transport whose one deployment runs on net,
// applying the deployment's Config.QueueBound to it before any process
// joins. It returns any because this package cannot import fastread; the
// caller asserts the result back to fastread.Transport.
var InMemory func(net *transport.InMemNetwork) any
