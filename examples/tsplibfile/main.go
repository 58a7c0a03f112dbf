// Tsplibfile shows the file-based workflow: write an instance to a TSPLIB
// .tsp file, load it back, solve it, store the tour as a .tour file, and
// re-evaluate the stored tour — the round trip a user with real TSPLIB
// data (e.g. from tsplib95) would follow.
//
//	go run ./examples/tsplibfile
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"distclk"
	"distclk/internal/tsp"
)

func main() {
	dir, err := os.MkdirTemp("", "distclk-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Write an instance file (stands in for downloading one).
	gen, err := distclk.Generate("clustered", 600, 11)
	if err != nil {
		log.Fatal(err)
	}
	tspPath := filepath.Join(dir, "c600.tsp")
	f, err := os.Create(tspPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := tsp.WriteTSPLIB(f, gen); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("wrote %s\n", tspPath)

	// 2. Load and solve.
	in, err := distclk.Load(tspPath)
	if err != nil {
		log.Fatal(err)
	}
	s, err := distclk.New(in, distclk.WithBudget(2*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %s: length %d\n", in.Name, res.Length)

	// 3. Store the tour.
	tourPath := filepath.Join(dir, "c600.tour")
	tf, err := os.Create(tourPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := tsp.WriteTourFile(tf, in.Name, res.Tour); err != nil {
		log.Fatal(err)
	}
	tf.Close()
	fmt.Printf("wrote %s\n", tourPath)

	// 4. Read the tour back and re-evaluate it.
	rf, err := os.Open(tourPath)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := tsp.ReadTourFile(rf, in.N())
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	if got := loaded.Length(in); got != res.Length {
		log.Fatalf("stored tour evaluates to %d, want %d", got, res.Length)
	}
	fmt.Printf("stored tour re-evaluates to %d — round trip OK\n", res.Length)
}
