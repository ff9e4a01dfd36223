// Command byzantine demonstrates the arbitrary-failure variant of the fast
// register (paper Figure 5): the writer signs every value, so even servers
// that lie about the register content cannot make readers return a value
// that was never written. The deployment satisfies S > (R+2)t + (R+1)b, the
// exact condition under which the paper proves fast reads remain possible
// despite b malicious servers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fastread"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		servers   = 8
		faulty    = 1
		malicious = 1
		readers   = 1
	)
	if !fastread.FastReadPossible(servers, faulty, malicious, readers) {
		return fmt.Errorf("deployment violates the Byzantine fast-read bound")
	}
	fmt.Printf("deployment: S=%d, t=%d, b=%d, R=%d — S > (R+2)t + (R+1)b holds (%d > %d)\n\n",
		servers, faulty, malicious, readers,
		servers, (readers+2)*faulty+(readers+1)*malicious)

	store, err := fastread.NewStore(fastread.Config{
		Servers:   servers,
		Faulty:    faulty,
		Malicious: malicious,
		Readers:   readers,
		Protocol:  fastread.ProtocolFastByzantine,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	reg, err := store.Register("")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reader, err := reg.Reader(1)
	if err != nil {
		return err
	}

	// Ordinary operation: signed writes, one-round-trip reads.
	secrets := []string{"ledger-epoch-1", "ledger-epoch-2", "ledger-epoch-3"}
	for _, s := range secrets {
		if err := reg.Writer().Write(ctx, []byte(s)); err != nil {
			return fmt.Errorf("write %q: %w", s, err)
		}
		res, err := reader.Read(ctx)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		fmt.Printf("wrote %-16q  read back %-16q  version=%d  round-trips=%d\n",
			s, res.Value, res.Version, res.RoundTrips)
	}

	// Now crash a server (a benign failure within the t budget) and keep
	// going: the quorum arithmetic already budgets for it.
	if err := store.CrashServer(servers); err != nil {
		return err
	}
	if err := reg.Writer().Write(ctx, []byte("after-crash")); err != nil {
		return fmt.Errorf("write after crash: %w", err)
	}
	res, err := reader.Read(ctx)
	if err != nil {
		return fmt.Errorf("read after crash: %w", err)
	}
	fmt.Printf("\nafter crashing one server: read %q (version %d), still one round-trip\n", res.Value, res.Version)

	stats := store.Stats()
	fmt.Printf("\ntotals: %d writes, %d reads, %.0f round-trips per read, %d messages delivered\n",
		stats.Writes, stats.Reads, stats.ReadRoundsPerOp, stats.DeliveredMsgs)
	fmt.Println("every value carried an ed25519 signature from the writer; forged or replayed replies are discarded by readers")
	return nil
}
