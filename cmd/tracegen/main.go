// Command tracegen generates the full event trace of one of the study's
// workloads and writes it to a file in the binary trace format.
//
// Usage:
//
//	tracegen -workload late_sender -o late_sender.trc
//	tracegen -workload late_sender -format v2 -o late_sender.trc
//	tracegen -list
//
// -format selects the container version: v1 (default, fixed-width
// records) or v2 (columnar blocks — smaller, block-parallel decode).
// Every reader in this repo auto-detects the version from the magic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/tracered"
)

func main() {
	workload := flag.String("workload", "", "workload name (see -list)")
	out := flag.String("o", "", "output file (default <workload>.trc)")
	format := flag.String("format", "v1", "container format: v1 or v2")
	list := flag.Bool("list", false, "list available workloads and exit")
	flag.Parse()

	if *list {
		for _, name := range tracered.WorkloadNames() {
			fmt.Println(name)
		}
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -workload is required (try -list)")
		os.Exit(2)
	}
	fv, err := tracered.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	if *out == "" {
		*out = *workload + ".trc"
	}
	t, err := tracered.GenerateWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	cw := &countingWriter{w: f}
	if err := tracered.WriteTraceFormat(cw, t, fv); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "tracegen: writing trace:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen: closing:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d ranks, %d events, %d bytes (%s) -> %s\n",
		*workload, t.NumRanks(), t.NumEvents(), cw.n, fv, *out)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
