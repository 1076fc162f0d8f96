package dnslog

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

func rec(t int64, o, q string) Record {
	return Record{
		Time:       simtime.Time(t),
		Originator: ipaddr.MustParse(o),
		Querier:    ipaddr.MustParse(q),
		Authority:  "jp",
	}
}

func TestRecordTextRoundTrip(t *testing.T) {
	r := Record{
		Time:       simtime.Date(2014, 4, 15, 11, 0),
		Originator: ipaddr.MustParse("1.2.3.4"),
		Querier:    ipaddr.MustParse("192.168.0.3"),
		Authority:  "b-root",
		RCode:      3,
	}
	line := string(r.AppendText(nil))
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordTextProperty(t *testing.T) {
	if err := quick.Check(func(ts int64, o, q uint32, rc uint8) bool {
		r := Record{
			Time:       simtime.Time(ts),
			Originator: ipaddr.Addr(o),
			Querier:    ipaddr.Addr(q),
			Authority:  "m-root",
			RCode:      rc,
		}
		got, err := ParseRecord(string(r.AppendText(nil)))
		return err == nil && got == r
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"",
		"1\t2\t3",
		"x\t1.2.3.4\t5.6.7.8\tjp\t0",
		"1\tbadip\t5.6.7.8\tjp\t0",
		"1\t1.2.3.4\tbadip\tjp\t0",
		"1\t1.2.3.4\t5.6.7.8\tjp\t999",
		"1\t1.2.3.4\t5.6.7.8\tjp\t0\textra",
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) succeeded", line)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{
		rec(100, "1.2.3.4", "10.0.0.1"),
		rec(101, "1.2.3.4", "10.0.0.2"),
		rec(150, "5.6.7.8", "10.0.0.1"),
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(want) {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\n100\t1.2.3.4\t10.0.0.1\tjp\t0\n\n# done\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	in := "100\t1.2.3.4\t10.0.0.1\tjp\t0\ngarbage line\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v, want line 2 mention", err)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestDeduperWindow(t *testing.T) {
	d := NewDeduper(30)
	a := rec(100, "1.2.3.4", "10.0.0.1")
	if !d.Keep(a) {
		t.Error("first record dropped")
	}
	if d.Keep(rec(120, "1.2.3.4", "10.0.0.1")) {
		t.Error("repeat within window kept")
	}
	if !d.Keep(rec(130, "1.2.3.4", "10.0.0.1")) {
		t.Error("record at window edge dropped (130-100 >= 30)")
	}
	// Different querier or originator is independent.
	if !d.Keep(rec(131, "1.2.3.4", "10.0.0.9")) {
		t.Error("different querier suppressed")
	}
	if !d.Keep(rec(132, "9.9.9.9", "10.0.0.1")) {
		t.Error("different originator suppressed")
	}
}

func TestDeduperSlidesWithKeptRecords(t *testing.T) {
	// The window anchors on the last *kept* record: 100 keeps, 129 drops,
	// and 131 must still drop because 131-100 >= 30 is false... it is 31,
	// so it keeps. Check the anchor did not slide to 129.
	d := NewDeduper(30)
	d.Keep(rec(100, "1.2.3.4", "10.0.0.1"))
	if d.Keep(rec(129, "1.2.3.4", "10.0.0.1")) {
		t.Fatal("129 kept")
	}
	if !d.Keep(rec(131, "1.2.3.4", "10.0.0.1")) {
		t.Error("131 dropped; suppression anchor slid to a dropped record")
	}
}

func TestDeduperZeroWindow(t *testing.T) {
	d := NewDeduper(0)
	r := rec(1, "1.2.3.4", "10.0.0.1")
	if !d.Keep(r) || !d.Keep(r) {
		t.Error("zero window must keep everything")
	}
}

func TestDeduperReset(t *testing.T) {
	d := NewDeduper(30)
	r := rec(100, "1.2.3.4", "10.0.0.1")
	d.Keep(r)
	d.Reset()
	if !d.Keep(rec(101, "1.2.3.4", "10.0.0.1")) {
		t.Error("record suppressed after Reset")
	}
}

func TestDedupSlice(t *testing.T) {
	in := []Record{
		rec(100, "1.2.3.4", "10.0.0.1"),
		rec(110, "1.2.3.4", "10.0.0.1"),
		rec(140, "1.2.3.4", "10.0.0.1"),
		rec(141, "5.6.7.8", "10.0.0.1"),
	}
	out := Dedup(in, 30)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3", len(out))
	}
	if out[1].Time != 140 || out[2].Originator != ipaddr.MustParse("5.6.7.8") {
		t.Errorf("unexpected survivors: %+v", out)
	}
}

func TestPersistenceBuckets(t *testing.T) {
	times := []simtime.Time{
		0, 1, 599, // one bucket
		600,        // second bucket
		1200, 1201, // third
	}
	if got := PersistenceBuckets(times); got != 3 {
		t.Errorf("PersistenceBuckets = %d, want 3", got)
	}
	if got := PersistenceBuckets(nil); got != 0 {
		t.Errorf("empty input: %d, want 0", got)
	}
}

func BenchmarkAppendText(b *testing.B) {
	r := rec(1397559600, "203.178.141.194", "10.0.0.1")
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendText(buf[:0])
	}
}

func BenchmarkParseRecord(b *testing.B) {
	line := string(rec(1397559600, "203.178.141.194", "10.0.0.1").AppendText(nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeduper(b *testing.B) {
	d := NewDeduper(30)
	r := rec(0, "1.2.3.4", "10.0.0.1")
	for i := 0; i < b.N; i++ {
		r.Time = simtime.Time(i)
		r.Querier = ipaddr.Addr(i % 1000)
		d.Keep(r)
	}
}

// FuzzParseRecord feeds arbitrary lines to the real-log entry point: it
// must return a record or ErrBadRecord, never panic, and any record it
// accepts must survive a format-and-parse round trip unchanged.
func FuzzParseRecord(f *testing.F) {
	f.Add(string(rec(1397559600, "1.2.3.4", "10.0.0.1").AppendText(nil)))
	f.Add("-5\t255.255.255.255\t0.0.0.0\t\t3")
	f.Add("1\t1.2.3.4\t10.0.0.1\tjp")
	f.Add("x\ty\tz\tjp\t0")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRecord(line)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("error %v does not wrap ErrBadRecord", err)
			}
			return
		}
		again, err := ParseRecord(string(r.AppendText(nil)))
		if err != nil || again != r {
			t.Fatalf("round trip of %q: %+v, %v; want %+v", line, again, err, r)
		}
	})
}
