package fastread_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"fastread"
)

// The quick start: the paper's fast register on S = 4 servers tolerating
// t = 1 crash, with R = 1 reader. That is within the bound R < S/t − 2, so
// every read takes one round trip, before and after a server crashes.
func ExampleNewStore() {
	store, err := fastread.NewStore(fastread.Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("") // the default register
	if err != nil {
		log.Fatal(err)
	}
	w := reg.Writer()
	r, err := reg.Reader(1)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := w.Write(ctx, []byte("hello")); err != nil {
		log.Fatal(err)
	}
	res, err := r.Read(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %q (version %d) in %d round trip\n", res.Value, res.Version, res.RoundTrips)

	// Within the failure bound a crash changes nothing for the clients.
	if err := store.CrashServer(4); err != nil {
		log.Fatal(err)
	}
	if err := w.Write(ctx, []byte("still here")); err != nil {
		log.Fatal(err)
	}
	if res, err = r.Read(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %q (version %d) in %d round trip after a crash\n", res.Value, res.Version, res.RoundTrips)
	// Output:
	// read "hello" (version 1) in 1 round trip
	// read "still here" (version 2) in 1 round trip after a crash
}
