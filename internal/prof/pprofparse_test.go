package prof

import (
	"bytes"
	"compress/gzip"
	"flag"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// Sample every allocation so the real-heap-profile tests see their
	// workload deterministically; set before any test allocates. Fuzzing
	// skips it: profiling every allocation slows each exec 20-fold.
	flag.Parse()
	if flag.Lookup("test.fuzz").Value.String() == "" {
		runtime.MemProfileRate = 1
	}
	m.Run()
}

// profSink keeps test allocations live so the heap profiler retains
// them.
var profSink [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 128; i++ {
		profSink = append(profSink, make([]byte, 8192))
	}
}

// grabHeapProfile writes the current heap profile in pprof protobuf
// form.
func grabHeapProfile(t *testing.T) []byte {
	t.Helper()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseRealHeapProfile round-trips a profile the runtime itself
// wrote: sample types resolve, and a known allocating function ranks
// among the top sites.
func TestParseRealHeapProfile(t *testing.T) {
	allocateForProfile()
	p, err := ParseProfile(grabHeapProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	idx := p.TypeIndex("alloc_space")
	if idx < 0 {
		t.Fatalf("sample types = %v, want alloc_space", p.SampleTypes)
	}
	if full := p.TypeIndex("alloc_space/bytes"); full != idx {
		t.Errorf("TypeIndex(alloc_space/bytes) = %d, want %d", full, idx)
	}
	sites := p.TopSites(idx, 0)
	found := false
	for _, s := range sites {
		if s.Func == "dnsbackscatter/internal/prof.allocateForProfile" {
			found = true
			if s.Flat < 128*8192 {
				t.Errorf("allocateForProfile flat = %d, want >= %d", s.Flat, 128*8192)
			}
		}
	}
	if !found {
		t.Errorf("allocateForProfile not among %d sites", len(sites))
	}
	profSink = nil
}

// TestDiffSites pins the snapshot-delta view: allocations between two
// heap profiles surface as positive flat deltas at their site.
func TestDiffSites(t *testing.T) {
	before, err := ParseProfile(grabHeapProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	allocateForProfile()
	after, err := ParseProfile(grabHeapProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	idx := after.TypeIndex("alloc_space")
	diff := DiffSites(before, after, idx, 10)
	found := false
	for _, s := range diff {
		if s.Func == "dnsbackscatter/internal/prof.allocateForProfile" && s.Flat >= 128*8192 {
			found = true
		}
	}
	if !found {
		t.Errorf("allocateForProfile growth missing from diff: %+v", diff)
	}
	profSink = nil
}

// TestPathSites pins stack-substring attribution: samples through this
// package's test functions attach to a path keyed on the package name.
func TestPathSites(t *testing.T) {
	allocateForProfile()
	p, err := ParseProfile(grabHeapProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	idx := p.TypeIndex("alloc_space")
	hit := p.PathSites(idx, []string{"internal/prof.allocateForProfile"}, 3)
	if len(hit) == 0 || hit[0].Func != "dnsbackscatter/internal/prof.allocateForProfile" {
		t.Errorf("PathSites = %+v, want allocateForProfile leaf", hit)
	}
	if miss := p.PathSites(idx, []string{"no/such/package"}, 3); len(miss) != 0 {
		t.Errorf("PathSites for absent package = %+v, want none", miss)
	}
	profSink = nil
}

// pbuf hand-encodes protobuf for the synthetic-profile tests.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *pbuf) tag(field, typ int) { b.varint(uint64(field<<3 | typ)) }
func (b *pbuf) msg(field int, body []byte) {
	b.tag(field, 2)
	b.varint(uint64(len(body)))
	b.Write(body)
}

// syntheticProfile builds a minimal uncompressed profile with one
// sample type, two functions, and one sample using *unpacked* repeated
// fields — the wire form the runtime does not emit but the spec allows.
func syntheticProfile() []byte {
	var st, fn1, fn2, loc1, loc2, line1, line2, sample, p pbuf
	// string_table: index 0 must be ""; then names.
	strs := []string{"", "alloc_objects", "count", "pkg.leaf", "pkg.caller"}
	// sample_type ValueType{type=1("alloc_objects"), unit=2("count")}
	st.tag(1, 0)
	st.varint(1)
	st.tag(2, 0)
	st.varint(2)
	// functions: id=1 name="pkg.leaf"; id=2 name="pkg.caller"
	fn1.tag(1, 0)
	fn1.varint(1)
	fn1.tag(2, 0)
	fn1.varint(3)
	fn2.tag(1, 0)
	fn2.varint(2)
	fn2.tag(2, 0)
	fn2.varint(4)
	// locations: id=1 -> line{function_id=1}; id=2 -> line{function_id=2}
	line1.tag(1, 0)
	line1.varint(1)
	loc1.tag(1, 0)
	loc1.varint(1)
	loc1.msg(4, line1.Bytes())
	line2.tag(1, 0)
	line2.varint(2)
	loc2.tag(1, 0)
	loc2.varint(2)
	loc2.msg(4, line2.Bytes())
	// sample: unpacked location_id 1, 2 (leaf first); unpacked value 42.
	sample.tag(1, 0)
	sample.varint(1)
	sample.tag(1, 0)
	sample.varint(2)
	sample.tag(2, 0)
	sample.varint(42)

	p.msg(1, st.Bytes())
	p.msg(2, sample.Bytes())
	p.msg(4, loc1.Bytes())
	p.msg(4, loc2.Bytes())
	p.msg(5, fn1.Bytes())
	p.msg(5, fn2.Bytes())
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	return p.Bytes()
}

// TestParseSyntheticProfile exercises the unpacked wire form and gzip
// transparency.
func TestParseSyntheticProfile(t *testing.T) {
	raw := syntheticProfile()
	for _, gz := range []bool{false, true} {
		data := raw
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		p, err := ParseProfile(data)
		if err != nil {
			t.Fatalf("gz=%v: %v", gz, err)
		}
		if len(p.SampleTypes) != 1 || p.SampleTypes[0] != "alloc_objects/count" {
			t.Fatalf("gz=%v: sample types = %v", gz, p.SampleTypes)
		}
		if len(p.Samples) != 1 {
			t.Fatalf("gz=%v: samples = %+v", gz, p.Samples)
		}
		s := p.Samples[0]
		if len(s.Stack) != 2 || s.Stack[0] != "pkg.leaf" || s.Stack[1] != "pkg.caller" {
			t.Errorf("gz=%v: stack = %v, want [pkg.leaf pkg.caller]", gz, s.Stack)
		}
		if len(s.Values) != 1 || s.Values[0] != 42 {
			t.Errorf("gz=%v: values = %v, want [42]", gz, s.Values)
		}
		sites := p.TopSites(0, 5)
		if len(sites) != 1 || sites[0] != (Site{Func: "pkg.leaf", Flat: 42}) {
			t.Errorf("gz=%v: sites = %+v", gz, sites)
		}
	}
}

// TestParseProfileErrors pins the failure modes: truncation, garbage,
// and profiles with no sample types.
func TestParseProfileErrors(t *testing.T) {
	if _, err := ParseProfile(syntheticProfile()[:7]); err == nil {
		t.Error("truncated profile parsed")
	}
	if _, err := ParseProfile([]byte{0x1f, 0x8b, 0xff}); err == nil {
		t.Error("bad gzip parsed")
	}
	var empty pbuf
	empty.msg(6, nil)
	if _, err := ParseProfile(empty.Bytes()); err == nil {
		t.Error("profile without sample types parsed")
	}
}

// expansionBomb is a 20 KB profile whose single sample names one
// 4,000-line location 4,000 times: 16M stack entries if expanded.
func expansionBomb() []byte {
	var st, fn, line, loc, locIDs, sample, p pbuf
	st.tag(1, 0)
	st.varint(1)
	st.tag(2, 0)
	st.varint(2)
	fn.tag(1, 0)
	fn.varint(1)
	fn.tag(2, 0)
	fn.varint(3)
	line.tag(1, 0)
	line.varint(1)
	loc.tag(1, 0)
	loc.varint(1)
	for range 4000 {
		loc.msg(4, line.Bytes())
	}
	for range 4000 {
		locIDs.varint(1)
	}
	sample.msg(1, locIDs.Bytes())
	sample.tag(2, 0)
	sample.varint(1)
	p.msg(1, st.Bytes())
	p.msg(2, sample.Bytes())
	p.msg(4, loc.Bytes())
	p.msg(5, fn.Bytes())
	for _, s := range []string{"", "alloc_objects", "count", "pkg.leaf"} {
		p.msg(6, []byte(s))
	}
	return p.Bytes()
}

// TestParseProfileBounds pins the parser's resource bounds: a profile
// whose stacks expand quadratically in its size, and a gzip stream that
// decompresses past the size cap, both fail instead of exhausting
// memory.
func TestParseProfileBounds(t *testing.T) {
	bomb := expansionBomb()
	if len(bomb) > 24<<10 {
		t.Fatalf("expansion bomb is %d bytes, want about 20 KB", len(bomb))
	}
	if _, err := ParseProfile(bomb); err == nil || !strings.Contains(err.Error(), "expand") {
		t.Errorf("expansion bomb: err = %v, want an expansion bound error", err)
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(make([]byte, maxProfileBytes+1)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProfile(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "larger than") {
		t.Errorf("gzip bomb: err = %v, want a size cap error", err)
	}
}

// FuzzParseProfile feeds arbitrary bytes to the parser: it must return
// a profile or an error, never panic, and never expand stacks past the
// bound.
func FuzzParseProfile(f *testing.F) {
	f.Add(syntheticProfile())
	f.Add(expansionBomb())
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(data)
		if err != nil || (len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b) {
			return // the bound below is on uncompressed input
		}
		n := 0
		for _, s := range p.Samples {
			n += len(s.Stack)
		}
		if n > maxStackEntriesPerByte*len(data)+minStackEntries {
			t.Fatalf("%d stack entries from %d input bytes", n, len(data))
		}
	})
}

// TestTypeIndexMiss pins the absent-type contract.
func TestTypeIndexMiss(t *testing.T) {
	p, err := ParseProfile(syntheticProfile())
	if err != nil {
		t.Fatal(err)
	}
	if idx := p.TypeIndex("cpu"); idx != -1 {
		t.Errorf("TypeIndex(cpu) = %d, want -1", idx)
	}
	if sites := p.TopSites(-1, 3); len(sites) != 0 {
		t.Errorf("TopSites(-1) = %+v, want none", sites)
	}
}
