package main

import (
	"bytes"
	"strings"
	"testing"
)

// canned is `go test -bench` output from two packages: sub-benchmarks,
// -cpu 1,4 suffixes, a custom metric, -v noise and a failed line.
const canned = `goos: linux
goarch: amd64
pkg: repro/internal/trace
cpu: Intel(R) Xeon(R) Processor
BenchmarkEncodedSize-2   	     147	   7872942 ns/op	        18.39 ns/event	   10976 B/op	      64 allocs/op
BenchmarkEncodedSize-2   	     139	   8926880 ns/op	        20.85 ns/event	   10976 B/op	      64 allocs/op
BenchmarkEncodedSize-2   	     132	   9256978 ns/op	        21.62 ns/event	   10976 B/op	      64 allocs/op
BenchmarkEncodedSize-2   	     150	   7000000 ns/op	        16.00 ns/event	   10976 B/op	      64 allocs/op
PASS
ok  	repro/internal/trace	4.711s
pkg: repro
BenchmarkReduce
BenchmarkReduce/NtoN_1024
BenchmarkReduce/NtoN_1024         	       3	  40 ns/op
BenchmarkReduce/NtoN_1024-4       	       3	  10 ns/op
BenchmarkReduce/NtoN_1024         	       3	  20 ns/op
BenchmarkReduce/NtoN_1024-4       	       3	  30 ns/op
BenchmarkReduce/NtoN_1024-4       	       3	  50 ns/op
BenchmarkBroken-2    	--- FAIL: BenchmarkBroken
BenchmarkOdd-2   	     10	   12 ns/op	   7
PASS
`

func TestParse(t *testing.T) {
	all, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		pkg, name, unit string
		samples         []float64
	}
	wants := []want{
		{"repro/internal/trace", "BenchmarkEncodedSize-2", "ns/op", []float64{7872942, 8926880, 9256978, 7000000}},
		{"repro/internal/trace", "BenchmarkEncodedSize-2", "ns/event", []float64{18.39, 20.85, 21.62, 16}},
		{"repro/internal/trace", "BenchmarkEncodedSize-2", "B/op", []float64{10976, 10976, 10976, 10976}},
		{"repro/internal/trace", "BenchmarkEncodedSize-2", "allocs/op", []float64{64, 64, 64, 64}},
		{"repro", "BenchmarkReduce/NtoN_1024", "ns/op", []float64{40, 20}},
		{"repro", "BenchmarkReduce/NtoN_1024-4", "ns/op", []float64{10, 30, 50}},
	}
	if len(all) != len(wants) {
		for _, s := range all {
			t.Logf("%s %s %s %v", s.pkg, s.name, s.unit, s.samples)
		}
		t.Fatalf("parsed %d series, want %d", len(all), len(wants))
	}
	for i, w := range wants {
		s := all[i]
		if s.pkg != w.pkg || s.name != w.name || s.unit != w.unit || !equal(s.samples, w.samples) {
			t.Errorf("series %d = %s %s %s %v, want %s %s %s %v", i,
				s.pkg, s.name, s.unit, s.samples, w.pkg, w.name, w.unit, w.samples)
		}
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSummarize(t *testing.T) {
	var out bytes.Buffer
	if err := summarize(strings.NewReader(canned), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	rows := map[string]bool{}
	for _, line := range strings.Split(got, "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{
		"pkg: repro/internal/trace",
		"pkg: repro",
		"benchmark unit runs median q1 q3 iqr/median",
		"BenchmarkEncodedSize-2 ns/op 4 8399911 7654706 9009404 16.1%",
		"BenchmarkEncodedSize-2 ns/event 4 19.62 17.79 21.04 16.6%",
		"BenchmarkEncodedSize-2 B/op 4 10976 10976 10976 0.0%",
		"BenchmarkReduce/NtoN_1024 ns/op 2 30 25 35 33.3%",
		"BenchmarkReduce/NtoN_1024-4 ns/op 3 30 20 40 66.7%",
	} {
		if !rows[want] {
			t.Errorf("summary lacks the row %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Broken") || strings.Contains(got, "Odd") {
		t.Errorf("summary kept a malformed line:\n%s", got)
	}
	if err := summarize(strings.NewReader("PASS\nok  \trepro\t1s\n"), &out); err == nil {
		t.Error("input without results was accepted")
	}
}
