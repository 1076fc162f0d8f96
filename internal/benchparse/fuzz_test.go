package benchparse

import (
	"strings"
	"testing"
)

// FuzzBenchparse feeds arbitrary text to ParseLine and Read, seeded with
// real `go test -bench` output. Neither may panic; every parsed result
// must carry a Benchmark name and non-negative, finite figures; and Read
// over one line must agree with ParseLine on it.
func FuzzBenchparse(f *testing.F) {
	f.Add("BenchmarkExtract-8   \t 12\t 95123456 ns/op\t 35180928 B/op\t  196373 allocs/op")
	f.Add("BenchmarkFast/w1-4 100 12.5 ns/op")
	f.Add("goos: linux\nBenchmarkB-8\t10\t200 ns/op\nBenchmarkA-8\t10\t100 ns/op\nPASS\n")
	f.Add("BenchmarkLayer/extract-2         \t       1\t1234567890 ns/op\t      2.50 records/s\t 1048576 B/op\t    9001 allocs/op")
	f.Add("ok  \tdnsbackscatter\t1.2s")
	f.Add("Benchmark-1 99999999999999999999 1e400 ns/op 1.7976931348623157e309 B/op 99999999999999999999 allocs/op")
	f.Fuzz(func(t *testing.T, text string) {
		results, err := Read(strings.NewReader(text))
		if err != nil && len(text) < 1<<20 {
			t.Fatalf("Read failed on %d bytes: %v", len(text), err)
		}
		for _, r := range results {
			if !strings.HasPrefix(r.Name, "Benchmark") {
				t.Fatalf("result name %q lacks the Benchmark prefix", r.Name)
			}
			if r.Iterations < 0 || r.AllocsPerOp < 0 || !(r.NsPerOp >= 0) || !(r.BytesPerOp >= 0) {
				t.Fatalf("negative or NaN figure in %+v", r)
			}
		}
		if strings.ContainsAny(text, "\r\n") {
			return
		}
		one, ok := ParseLine(text)
		if ok != (len(results) == 1) || (ok && one != results[0]) {
			t.Fatalf("ParseLine(%q) = %+v, %v; Read gave %+v", text, one, ok, results)
		}
	})
}
