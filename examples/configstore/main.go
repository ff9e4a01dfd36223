// Command configstore models the workload that motivates fast reads in the
// paper's introduction: a single operator (the writer) publishes
// configuration revisions, and a handful of application instances (the
// readers) poll it continuously. Reads vastly outnumber writes, so the
// difference between a one-round-trip read (the paper's fast register) and a
// two-round-trip read (classic ABD) dominates end-to-end latency.
//
// The example runs the same workload against both protocols over an
// in-memory network with a 1ms one-way message delay and prints the latency
// distribution of each, plus the resilience maths for the chosen deployment.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sort"
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
		delay   = time.Millisecond
	)
	fmt.Printf("deployment: S=%d servers, t=%d may crash, R=%d readers\n", servers, faulty, readers)
	fmt.Printf("fast atomic reads possible: %v (max readers at this resilience: %d)\n\n",
		fastread.FastReadPossible(servers, faulty, 0, readers),
		fastread.MaxFastReaders(servers, faulty, 0))

	for _, proto := range []fastread.Protocol{fastread.ProtocolFast, fastread.ProtocolABD} {
		lat, err := runConfigWorkload(proto, servers, faulty, readers, delay)
		if err != nil {
			return fmt.Errorf("%v: %w", proto, err)
		}
		fmt.Printf("%-8s reads: p50=%v p95=%v max=%v (over %d reads)\n",
			proto, lat.p50, lat.p95, lat.max, lat.count)
	}
	fmt.Println("\nthe fast register answers every poll in a single round-trip; ABD pays a write-back round on every read")
	return nil
}

// latencySummary is a tiny local summary to keep the example dependency-free.
type latencySummary struct {
	count         int
	p50, p95, max time.Duration
}

// runConfigWorkload publishes a few revisions while readers poll, and returns
// the read-latency summary.
func runConfigWorkload(proto fastread.Protocol, servers, faulty, readers int, delay time.Duration) (latencySummary, error) {
	cluster, err := fastread.NewCluster(fastread.Config{
		Servers:   servers,
		Faulty:    faulty,
		Readers:   readers,
		Protocol:  proto,
		Transport: fastread.InMemory(fastread.WithDelay(delay)),
	})
	if err != nil {
		return latencySummary{}, err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		mu        sync.Mutex
		latencies []time.Duration
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
			if err := cluster.Writer().Write(ctx, doc); err != nil {
				log.Printf("publish revision %d: %v", v, err)
				return
			}
		}
	}()

	// Application instances poll the configuration.
	for i := 1; i <= readers; i++ {
		reader, err := cluster.Reader(i)
		if err != nil {
			return latencySummary{}, err
		}
		wg.Add(1)
		go func(r fastread.Reader) {
			defer wg.Done()
			lastVersion := -1
			for poll := 0; poll < 10; poll++ {
				start := time.Now()
				res, err := r.Read(ctx)
				if err != nil {
					log.Printf("poll: %v", err)
					return
				}
				elapsed := time.Since(start)
				mu.Lock()
				latencies = append(latencies, elapsed)
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

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) == 0 {
		return latencySummary{}, fmt.Errorf("no reads completed")
	}
	return latencySummary{
		count: len(latencies),
		p50:   latencies[len(latencies)/2].Round(100 * time.Microsecond),
		p95:   latencies[len(latencies)*95/100].Round(100 * time.Microsecond),
		max:   latencies[len(latencies)-1].Round(100 * time.Microsecond),
	}, nil
}
