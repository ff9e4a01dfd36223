// Command sensorfeed models a telemetry head-value register: one ingestion
// process (the writer) continuously stores the latest sensor sample, and a
// set of dashboards (the readers) refresh concurrently. The example compares
// the paper's fast register against the decentralised max-min variant and
// the regular register, and shows how the reader-count bound R < S/t − 2
// governs which protocol a deployment can use.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fastread"
)

// sample is the sensor reading stored in the register.
type sample struct {
	Sequence uint64
	Celsius  float64
}

// encode packs a sample into the register value.
func (s sample) encode() []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf[:8], s.Sequence)
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(s.Celsius))
	return buf
}

// decodeSample unpacks a register value.
func decodeSample(b []byte) (sample, bool) {
	if len(b) != 16 {
		return sample{}, false
	}
	return sample{
		Sequence: binary.BigEndian.Uint64(b[:8]),
		Celsius:  math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
	}, true
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		servers    = 9
		faulty     = 1
		dashboards = 4
		delay      = 500 * time.Microsecond
	)
	fmt.Printf("deployment: S=%d, t=%d, %d dashboards\n", servers, faulty, dashboards)
	fmt.Printf("fast atomic reads need R < S/t − 2: max supported dashboards = %d\n\n",
		fastread.MaxFastReaders(servers, faulty, 0))

	protocols := []fastread.Protocol{fastread.ProtocolFast, fastread.ProtocolMaxMin, fastread.ProtocolRegular}
	for _, proto := range protocols {
		if err := runFeed(proto, servers, faulty, dashboards, delay); err != nil {
			return fmt.Errorf("%v: %w", proto, err)
		}
	}
	fmt.Println("\nfast and regular reads are one round-trip; max-min hides an extra server-to-server hop inside its single client round-trip")
	fmt.Println("only the fast and max-min registers are atomic: with the regular register two dashboards may briefly disagree about the freshest sample")
	return nil
}

// runFeed drives one protocol and prints its refresh statistics.
func runFeed(proto fastread.Protocol, servers, faulty, dashboards int, delay time.Duration) error {
	cluster, err := fastread.NewCluster(fastread.Config{
		Servers:   servers,
		Faulty:    faulty,
		Readers:   dashboards,
		Protocol:  proto,
		Transport: fastread.InMemory(fastread.WithDelay(delay)),
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		wg            sync.WaitGroup
		staleRefresh  atomic.Int64
		totalRefresh  atomic.Int64
		refreshNanos  atomic.Int64
		ingestedCount = 20
	)

	// Ingestion: one sample every few milliseconds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= ingestedCount; i++ {
			s := sample{Sequence: uint64(i), Celsius: 20 + float64(i)*0.25}
			if err := cluster.Writer().Write(ctx, s.encode()); err != nil {
				log.Printf("ingest %d: %v", i, err)
				return
			}
		}
	}()

	// Dashboards refresh concurrently and track whether their view ever goes
	// backwards (it must not, for the atomic protocols).
	for d := 1; d <= dashboards; d++ {
		reader, err := cluster.Reader(d)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(r fastread.Reader) {
			defer wg.Done()
			var lastSeq uint64
			for refresh := 0; refresh < 15; refresh++ {
				start := time.Now()
				res, err := r.Read(ctx)
				if err != nil {
					log.Printf("refresh: %v", err)
					return
				}
				refreshNanos.Add(time.Since(start).Nanoseconds())
				totalRefresh.Add(1)
				if s, ok := decodeSample(res.Value); ok {
					if s.Sequence < lastSeq {
						staleRefresh.Add(1)
					} else {
						lastSeq = s.Sequence
					}
				}
			}
		}(reader)
	}
	wg.Wait()

	stats := cluster.Stats()
	meanRefresh := time.Duration(0)
	if totalRefresh.Load() > 0 {
		meanRefresh = time.Duration(refreshNanos.Load() / totalRefresh.Load()).Round(10 * time.Microsecond)
	}
	fmt.Printf("%-8s refreshes=%-3d mean refresh latency=%-10v rounds/read=%.0f stale refreshes=%d\n",
		proto, totalRefresh.Load(), meanRefresh, stats.ReadRoundsPerOp, staleRefresh.Load())
	return nil
}
