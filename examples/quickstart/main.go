// Command quickstart is the smallest possible use of the fastread library:
// build an in-memory cluster of the paper's fast atomic register, write a
// value, read it back in a single round-trip.
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
	// 4 servers, at most 1 crash, 1 reader: within the paper's R < S/t − 2
	// bound, so every read is guaranteed to finish in one round-trip.
	store, err := fastread.NewStore(fastread.Config{
		Servers: 4,
		Faulty:  1,
		Readers: 1,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	reg, err := store.Register("")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	writer := reg.Writer()
	reader, err := reg.Reader(1)
	if err != nil {
		return err
	}

	if err := writer.Write(ctx, []byte("hello, atomic world")); err != nil {
		return fmt.Errorf("write: %w", err)
	}

	res, err := reader.Read(ctx)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	fmt.Printf("read %q (version %d) in %d round-trip(s)\n", res.Value, res.Version, res.RoundTrips)

	// Crash a server — within the failure bound nothing changes for clients.
	if err := store.CrashServer(4); err != nil {
		return err
	}
	if err := writer.Write(ctx, []byte("still here after a crash")); err != nil {
		return fmt.Errorf("write after crash: %w", err)
	}
	res, err = reader.Read(ctx)
	if err != nil {
		return fmt.Errorf("read after crash: %w", err)
	}
	fmt.Printf("read %q (version %d) after crashing one server\n", res.Value, res.Version)

	// The paper's exact bound is available as a helper.
	fmt.Printf("with S=4, t=1 a fast register supports at most %d readers\n", fastread.MaxFastReaders(4, 1, 0))
	return nil
}
