// Command configstore models the workload that motivates fast reads in the
// paper's introduction: a single operator (the writer) publishes
// configuration revisions, and a handful of application instances (the
// readers) poll it continuously. Reads vastly outnumber writes, so the
// difference between a one-round-trip read (the paper's fast register) and a
// two-round-trip read (classic ABD) dominates end-to-end latency.
//
// The example runs the same workload against both protocols over an
// in-memory network and prints the round trips each read took — the count
// that sets a read's latency on any real network — plus the resilience
// maths for the chosen deployment.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"fastread"
)

// revision is the configuration document the operator publishes.
type revision struct {
	Version  int               `json:"version"`
	Flags    map[string]bool   `json:"flags"`
	Backends map[string]string `json:"backends"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		servers = 5
		faulty  = 1
		readers = 2
	)
	fmt.Printf("deployment: S=%d servers, t=%d may crash, R=%d readers\n", servers, faulty, readers)
	fmt.Printf("fast atomic reads possible: %v (max readers at this resilience: %d)\n\n",
		fastread.FastReadPossible(servers, faulty, 0, readers),
		fastread.MaxFastReaders(servers, faulty, 0))

	for _, proto := range []fastread.Protocol{fastread.ProtocolFast, fastread.ProtocolABD} {
		sum, err := runConfigWorkload(proto, servers, faulty, readers)
		if err != nil {
			return fmt.Errorf("%v: %w", proto, err)
		}
		fmt.Printf("%-8s reads: %d, round trips per read: mean %.2f, max %d\n",
			proto, sum.count, float64(sum.roundTrips)/float64(sum.count), sum.maxRoundTrips)
	}
	fmt.Println("\nthe fast register answers every poll in a single round-trip; ABD pays a write-back round on every read")
	return nil
}

// readSummary counts the reads of one run and the round trips they took.
type readSummary struct {
	count, roundTrips, maxRoundTrips int
}

// runConfigWorkload publishes a few revisions while readers poll, and returns
// the reads' round-trip summary.
func runConfigWorkload(proto fastread.Protocol, servers, faulty, readers int) (readSummary, error) {
	store, err := fastread.NewStore(fastread.Config{
		Servers:  servers,
		Faulty:   faulty,
		Readers:  readers,
		Protocol: proto,
	})
	if err != nil {
		return readSummary{}, err
	}
	defer store.Close()
	reg, err := store.Register("")
	if err != nil {
		return readSummary{}, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		mu  sync.Mutex
		sum readSummary
	)
	var wg sync.WaitGroup

	// The operator publishes 5 revisions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= 5; v++ {
			doc, err := json.Marshal(revision{
				Version:  v,
				Flags:    map[string]bool{"new-checkout": v%2 == 0},
				Backends: map[string]string{"payments": fmt.Sprintf("payments-v%d", v)},
			})
			if err != nil {
				log.Printf("marshal revision %d: %v", v, err)
				return
			}
			if err := reg.Writer().Write(ctx, doc); err != nil {
				log.Printf("publish revision %d: %v", v, err)
				return
			}
		}
	}()

	// Application instances poll the configuration.
	for i := 1; i <= readers; i++ {
		reader, err := reg.Reader(i)
		if err != nil {
			return readSummary{}, err
		}
		wg.Add(1)
		go func(r fastread.Reader) {
			defer wg.Done()
			lastVersion := -1
			for poll := 0; poll < 10; poll++ {
				res, err := r.Read(ctx)
				if err != nil {
					log.Printf("poll: %v", err)
					return
				}
				mu.Lock()
				sum.count++
				sum.roundTrips += res.RoundTrips
				sum.maxRoundTrips = max(sum.maxRoundTrips, res.RoundTrips)
				mu.Unlock()
				if res.Value != nil {
					var rev revision
					if err := json.Unmarshal(res.Value, &rev); err == nil && rev.Version < lastVersion {
						log.Printf("ANOMALY: observed version %d after %d", rev.Version, lastVersion)
					} else if err == nil {
						lastVersion = rev.Version
					}
				}
			}
		}(reader)
	}
	wg.Wait()

	if sum.count == 0 {
		return readSummary{}, fmt.Errorf("no reads completed")
	}
	return sum, nil
}
