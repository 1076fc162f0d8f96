package stream

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// testNames steers static features from the querier's last octet.
func testNames(a ipaddr.Addr) (string, bool) {
	_, _, _, o3 := a.Octets()
	switch o3 % 3 {
	case 0:
		return "mail.example.jp", false
	case 1:
		return "home1-2-3-4.example.jp", false
	default:
		return "ns1.example.jp", false
	}
}

// parityScorer is a deterministic stand-in for a trained model.
type parityScorer struct{}

func (parityScorer) Classify(v *features.Vector) activity.Class {
	if v.Queriers%2 == 0 {
		return activity.Scan
	}
	return activity.Mail
}

// genRecords builds a seeded stream: nOrig originators with footprints
// spread over [1, 2*perOrig), timestamps advancing ~3 s per record so a
// few thousand records span multiple 10-minute buckets.
func genRecords(seed uint64, nOrig, perOrig int) []dnslog.Record {
	st := rng.New(seed)
	var recs []dnslog.Record
	t := simtime.Time(1000)
	for o := 0; o < nOrig; o++ {
		orig := ipaddr.FromOctets(192, byte(o>>8), byte(o), 1)
		nq := 1 + st.Intn(2*perOrig)
		for q := 0; q < nq; q++ {
			recs = append(recs, dnslog.Record{
				Time:       t,
				Originator: orig,
				Querier:    ipaddr.Addr(st.Uint64()),
			})
			t = t.Add(3)
		}
	}
	// Interleave across originators so shards fill concurrently.
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

func testConfig(workers int) Config {
	return Config{
		Geo:            geo.NewRegistry(42),
		NameOf:         testNames,
		Scorer:         parityScorer{},
		MinQueriers:    10,
		Epoch:          simtime.Hour,
		MaxOriginators: 1 << 10,
		SampleK:        64,
		HHHCapacity:    64,
		Seed:           7,
		Workers:        workers,
	}
}

func feedIn(e *Engine, recs []dnslog.Record, batch int) {
	for i := 0; i < len(recs); i += batch {
		j := i + batch
		if j > len(recs) {
			j = len(recs)
		}
		e.Ingest(recs[i:j])
	}
}

// TestWorkerDeterminism pins the package contract: identical record
// sequences produce byte-identical snapshots and status at workers
// {1, 8}, whatever the batch size.
func TestWorkerDeterminism(t *testing.T) {
	recs := genRecords(1, 300, 30)
	var snaps [][]byte
	var status [][]byte
	for _, w := range []int{1, 8} {
		for _, batch := range []int{97, 4096} {
			e := New(testConfig(w))
			feedIn(e, recs, batch)
			e.Tick(recs[len(recs)-1].Time + 1)
			snaps = append(snaps, e.Snapshot())
			status = append(status, e.StatusJSON())
		}
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("snapshot %d differs from snapshot 0 (workers/batch variation changed bytes)", i)
		}
		if !bytes.Equal(status[0], status[i]) {
			t.Fatalf("status %d differs from status 0", i)
		}
	}
	if !strings.Contains(string(snaps[0]), "verdict ") {
		t.Fatal("snapshot carries no verdicts")
	}
	if !strings.Contains(string(snaps[0]), "hhh originators") ||
		!strings.Contains(string(snaps[0]), "hhh queriers") {
		t.Fatal("snapshot missing heavy-hitter sections")
	}
}

// TestOriginatorBound floods the engine with 10× its capacity: tracked
// state must respect the hard bound, evictions must fire, and the
// heavy-hitter view must keep the evicted mass (total == kept records).
func TestOriginatorBound(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxOriginators = 256
	cfg.DedupWindow = 0
	e := New(cfg)
	st := rng.New(3)
	var recs []dnslog.Record
	for i := 0; i < 10*256; i++ {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(1000 + i),
			Originator: ipaddr.Addr(st.Uint64()),
			Querier:    ipaddr.Addr(st.Uint64()),
		})
	}
	feedIn(e, recs, 512)
	if got, max := e.Tracked(), e.MaxTracked(); got > max {
		t.Fatalf("tracked %d exceeds hard bound %d", got, max)
	}
	status := e.Status()
	if status.Evictions == 0 {
		t.Fatal("10x overload produced no evictions")
	}
	if status.Kept != uint64(len(recs)) {
		t.Fatalf("kept %d records, want %d (dedup off)", status.Kept, len(recs))
	}
	snap := string(e.Snapshot())
	if !strings.Contains(snap, "hhh originators total=2560") {
		t.Errorf("heavy hitters lost evicted mass:\n%.200s", snap)
	}
}

// TestEpochRescoring drives three epochs and checks verdicts, churn
// accounting, and the windowed epoch series.
func TestEpochRescoring(t *testing.T) {
	cfg := testConfig(2)
	reg := obs.NewRegistry()
	win := obs.NewWindow(simtime.Hour)
	reg.SetWindow(win)
	cfg.Obs = reg
	cfg.Acct = prof.New()

	e := New(cfg)
	st := rng.New(5)
	orig := ipaddr.MustParse("10.0.0.1")
	var recs []dnslog.Record
	for ep := 0; ep < 3; ep++ {
		base := simtime.Time(ep) * simtime.Time(simtime.Hour)
		for q := 0; q < 100; q++ {
			recs = append(recs, dnslog.Record{
				Time:       base + simtime.Time(q*35),
				Originator: orig,
				Querier:    ipaddr.Addr(st.Uint64()),
			})
		}
	}
	e.Ingest(recs)
	e.Tick(3 * simtime.Time(simtime.Hour))
	status := e.Status()
	if status.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3 (two boundary crossings + final tick)", status.Epochs)
	}
	if status.Analyzable != 1 {
		t.Fatalf("analyzable = %d, want 1", status.Analyzable)
	}
	if len(e.Vectors()) != 1 || e.Vectors()[0].Originator != orig {
		t.Fatal("vectors missing the tracked originator")
	}
	if c, ok := e.Verdicts()[orig]; !ok || (c != activity.Scan && c != activity.Mail) {
		t.Fatalf("verdict missing or unexpected: %v %v", c, ok)
	}
	wsnap := string(win.Snapshot())
	if !strings.Contains(wsnap, "stream_epochs_total") {
		t.Error("window missing stream_epochs_total series")
	}
	if !strings.Contains(wsnap, "stream_verdicts_total") {
		t.Error("window missing stream_verdicts_total series")
	}
	if reg.Counter("stream_records_total").Value() != uint64(len(recs)) {
		t.Error("stream_records_total does not match ingested count")
	}
}

// TestOutOfOrderAndDuplicates replays a shuffled, duplicated stream:
// no panics, the watermark is the max time, and scoring still works.
func TestOutOfOrderAndDuplicates(t *testing.T) {
	recs := genRecords(9, 50, 20)
	recs = append(recs, recs[:200]...) // exact duplicates
	st := rng.New(1)
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	var max simtime.Time
	for _, r := range recs {
		if r.Time > max {
			max = r.Time
		}
	}
	e := New(testConfig(3))
	feedIn(e, recs, 333)
	e.Tick(max + 1)
	if got := e.Status().Watermark; got != max {
		t.Fatalf("watermark %v, want %v", got, max)
	}
	if e.Status().Epochs == 0 {
		t.Fatal("no rescore ran")
	}
}

// TestEpochJump checks that one far-future record advances the epoch
// clock directly instead of replaying every intermediate tick.
func TestEpochJump(t *testing.T) {
	e := New(testConfig(1))
	q := rng.New(2)
	mk := func(at simtime.Time) dnslog.Record {
		return dnslog.Record{Time: at, Originator: ipaddr.MustParse("10.9.9.9"),
			Querier: ipaddr.Addr(q.Uint64())}
	}
	e.Ingest([]dnslog.Record{mk(0), mk(40), mk(1000 * simtime.Time(simtime.Hour)), mk(80)})
	if got := e.Status().Epochs; got != 1 {
		t.Fatalf("epochs = %d after jump, want exactly 1 boundary score", got)
	}
	if got := e.Status().Records; got != 4 {
		t.Fatalf("records = %d, want 4 (stragglers still ingested)", got)
	}
}

// TestDefaultsAndEmpty covers config defaulting, empty ingest, ticks
// before start, and the unscored snapshot path (nil Scorer).
func TestDefaultsAndEmpty(t *testing.T) {
	e := New(Config{Geo: geo.NewRegistry(1), NameOf: testNames})
	if e.MaxTracked() < 1<<16 {
		t.Fatalf("default MaxTracked %d < 2^16", e.MaxTracked())
	}
	e.Ingest(nil)
	e.Tick(50) // not started: no-op
	if e.Status().Epochs != 0 {
		t.Fatal("tick before first record must not score")
	}
	st := rng.New(4)
	var recs []dnslog.Record
	for q := 0; q < 120; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q * 31),
			Originator: ipaddr.MustParse("10.1.1.1"), Querier: ipaddr.Addr(st.Uint64())})
	}
	e.Ingest(recs)
	e.Tick(simtime.Time(simtime.Hour))
	e.Tick(simtime.Time(simtime.Hour)) // repeat tick at same instant: no-op
	if got := e.Status().Epochs; got != 1 {
		t.Fatalf("epochs = %d, want 1", got)
	}
	snap := string(e.Snapshot())
	if !strings.Contains(snap, "unscored") {
		t.Errorf("nil-Scorer snapshot should mark vectors unscored:\n%.200s", snap)
	}
	if len(e.Verdicts()) != 0 {
		t.Error("nil Scorer produced verdicts")
	}
}

// TestDedupWindow pins the sliding-window suppression: repeats inside
// the window are dropped, repeats outside are kept.
func TestDedupWindow(t *testing.T) {
	e := New(testConfig(1))
	o, q := ipaddr.MustParse("10.2.2.2"), ipaddr.MustParse("172.16.0.1")
	e.Ingest([]dnslog.Record{
		{Time: 100, Originator: o, Querier: q},
		{Time: 101, Originator: o, Querier: q}, // inside 30 s window
		{Time: 200, Originator: o, Querier: q}, // outside
	})
	if got := e.Status().Kept; got != 2 {
		t.Fatalf("kept = %d, want 2", got)
	}
}

// batchRecs gives one originator nQueriers distinct queriers, each
// querying queriesEach times 40 s apart (outside the 30 s dedup window).
func batchRecs(orig string, nQueriers, queriesEach int) []dnslog.Record {
	o := ipaddr.MustParse(orig)
	var recs []dnslog.Record
	t := simtime.Time(0)
	for q := 0; q < nQueriers; q++ {
		qa := ipaddr.FromOctets(10, byte(q/256), byte(q%256), byte(q%251))
		for k := 0; k < queriesEach; k++ {
			recs = append(recs, dnslog.Record{Time: t, Originator: o, Querier: qa, Authority: "jp"})
			t = t.Add(40)
		}
	}
	return recs
}

// TestMatchesBatchExtract replays inputs through the engine and through
// the batch extractor over the same one-day window. The engine must
// emit the same originators: none below MinQueriers. Its footprints
// must sit within 10% of the exact ones, with equal query counts. Its
// sampled static fractions must be within 0.12 of batch, and its global
// entropy within 0.15.
func TestMatchesBatchExtract(t *testing.T) {
	cases := []struct {
		name string
		recs []dnslog.Record
		want int // vectors emitted
	}{
		{"two originators", append(batchRecs("1.2.3.4", 500, 2), batchRecs("5.6.7.8", 80, 3)...), 2},
		{"one wide originator", batchRecs("1.2.3.4", 400, 1), 1},
		{"below threshold", batchRecs("1.2.3.4", 5, 1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.SampleK = 256
			cfg.Epoch = simtime.Day
			e := New(cfg)
			e.Ingest(tc.recs)
			e.Tick(simtime.Time(simtime.Day))
			sv := e.Vectors()

			batch := features.NewExtractor(cfg.Geo, testNames)
			batch.MinQueriers = cfg.MinQueriers
			bv := batch.Extract(tc.recs, 0, simtime.Day)
			if len(sv) != tc.want || len(bv) != tc.want {
				t.Fatalf("stream %d vs batch %d vectors, want %d", len(sv), len(bv), tc.want)
			}
			for i := range bv {
				b, s := bv[i], sv[i]
				if b.Originator != s.Originator {
					t.Fatalf("vector %d: originator %v vs batch %v", i, s.Originator, b.Originator)
				}
				rel := math.Abs(float64(s.Queriers-b.Queriers)) / float64(b.Queriers)
				if rel > 0.10 {
					t.Errorf("%v: footprint %d vs exact %d (%.1f%% off)", b.Originator, s.Queriers, b.Queriers, 100*rel)
				}
				if s.Queries != b.Queries {
					t.Errorf("%v: queries %d vs batch %d", b.Originator, s.Queries, b.Queries)
				}
				for f := 0; f < features.NumStatic; f++ {
					if math.Abs(s.X[f]-b.X[f]) > 0.12 {
						t.Errorf("%v: static %d %.2f vs batch %.2f", b.Originator, f, s.X[f], b.X[f])
					}
				}
				se, be := s.Dynamic(features.DynGlobalEntropy), b.Dynamic(features.DynGlobalEntropy)
				if math.Abs(se-be) > 0.15 {
					t.Errorf("%v: global entropy %.2f vs batch %.2f", b.Originator, se, be)
				}
			}
		})
	}
}

// TestEvictionKeepsLargest floods a small engine with one-querier
// originators after one wide originator: eviction must drop the tail,
// never the originator that matters.
func TestEvictionKeepsLargest(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxOriginators = 64
	e := New(cfg)
	st := rng.New(3)
	big := ipaddr.MustParse("9.9.9.9")
	var recs []dnslog.Record
	for q := 0; q < 300; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q * 10), Originator: big,
			Querier: ipaddr.Addr(st.Uint64())})
	}
	for o := 0; o < 500; o++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(3000 + o), Originator: ipaddr.Addr(st.Uint64()),
			Querier: ipaddr.Addr(st.Uint64())})
	}
	e.Ingest(recs)
	e.Tick(simtime.Time(simtime.Hour))
	if got, max := e.Tracked(), e.MaxTracked(); got > max {
		t.Fatalf("tracked %d originators, bound %d", got, max)
	}
	if e.Status().Evictions == 0 {
		t.Fatal("flood produced no evictions")
	}
	if vs := e.Vectors(); len(vs) != 1 || vs[0].Originator != big {
		t.Fatalf("vectors %v, want only the wide originator %v", vs, big)
	}
}

func BenchmarkEngineIngest(b *testing.B) {
	cfg := testConfig(0)
	e := New(cfg)
	recs := genRecords(1, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest(recs)
	}
}

// TestStatusValues pins the scalar flattening the alert engine's
// stream() expressions read: every key present, values matching the
// struct fields.
func TestStatusValues(t *testing.T) {
	s := Status{Epochs: 3, ScoredAt: 7200, Watermark: 7300, Records: 10,
		Kept: 8, Tracked: 5, MaxTracked: 64, Evictions: 2, Analyzable: 4, Churn: 6}
	v := s.Values()
	want := map[string]float64{
		"epochs": 3, "scored_at": 7200, "watermark": 7300, "records": 10,
		"kept": 8, "tracked": 5, "max_tracked": 64, "evictions": 2,
		"analyzable": 4, "churn": 6,
	}
	if len(v) != len(want) {
		t.Fatalf("Values has %d keys, want %d: %v", len(v), len(want), v)
	}
	for k, w := range want {
		if v[k] != w {
			t.Errorf("Values[%q] = %v, want %v", k, v[k], w)
		}
	}
}
