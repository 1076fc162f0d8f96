package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	bs "dnsbackscatter"
	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/stream"
)

const (
	// liveScale and liveRateScale size JP-ditl for stream-live: the
	// full campaign population (about 170 originators) at a quarter of
	// the touch rate, 25k to 75k records over 50 hours by seed. One
	// replay crosses 49 hourly epochs, and each rescore scores about 90
	// analyzable originators.
	liveScale     = 1.0
	liveRateScale = 0.25
	// liveInputs is how many JP-ditl datasets a stream-live run builds
	// from its seed.
	liveInputs = 8
	// liveEpoch is bsserve's default -stream-epoch.
	liveEpoch = simtime.Hour
	// liveWindow is bsserve's default -window, the bucket width of the
	// series the alert rules read.
	liveWindow = simtime.Minute
	// liveRate is the workload's named rate, in records per second, at
	// which latency_ms and the printed p99 are measured.
	liveRate = 20000.0
	// liveP99Limit is the latency limit a rung of the ladder must meet.
	liveP99Limit = 100 * time.Millisecond
	// alertEvery is the alert goroutine's wall cadence. bsserve ticks
	// every 15 s against a live feed; a replay packs 50 hours of records
	// into seconds, so the cadence shrinks with it.
	alertEvery = 50 * time.Millisecond
	// ladderBase and ladderStep define the rate ladder: rung k offers
	// ladderBase * ladderStep^k records per second.
	ladderBase = 10000.0
	ladderStep = 1.05
	// maxProbes bounds one ladder search.
	maxProbes = 6
)

// liveState is stream-live's set-up: JP-ditl built, the scorer trained,
// the records in time order, and the snapshot one batched replay of them
// leaves behind.
type liveState struct {
	d     *bs.Dataset
	model *bs.Model
	recs  []dnslog.Record
	end   simtime.Time
	ref   []byte
}

// engine returns a fresh streaming engine configured as Dataset.NewStream
// would, with an hourly epoch and reg attached.
func (st *liveState) engine(reg *obs.Registry) *stream.Engine {
	return stream.New(stream.Config{
		Geo:         st.d.World.Geo,
		NameOf:      st.d.World.QuerierName,
		Scorer:      st.model,
		MinQueriers: st.d.Extractor.MinQueriers,
		Epoch:       liveEpoch,
		Seed:        st.d.Spec.Seed,
		Workers:     workers,
		Obs:         reg,
	})
}

// streamLive is an open loop: each op replays JP-ditl's records, one per
// Ingest call, into a fresh engine at a fixed offered rate while an alert
// goroutine evaluates the default rules. The timed ops run at the named
// rate; after them one search of the rate ladder looks for the highest
// rung that meets the p99 limit without a growing backlog.
func streamLive(r *run) error {
	inputs, err := setup(r, liveInputs, func(seed uint64) (*liveState, error) {
		d := bs.Build(seeded(bs.JPDitl(), liveScale, liveRateScale, seed))
		model, err := d.TrainClassifier(1)
		if err != nil {
			return nil, fmt.Errorf("train scorer: %w", err)
		}
		// The simulator logs campaign by campaign, so adjacent records
		// can go back in time; a live authority delivers them in order.
		recs := slices.Clone(d.Records)
		slices.SortStableFunc(recs, func(a, b dnslog.Record) int { return int(a.Time - b.Time) })
		st := &liveState{d: d, model: model, recs: recs, end: d.Spec.Start.Add(d.Spec.Duration)}
		e := st.engine(nil)
		e.Ingest(recs)
		e.Tick(st.end)
		st.ref = e.Snapshot()
		return st, nil
	})
	if err != nil {
		return err
	}
	for j, st := range inputs {
		fmt.Printf("input %d: JP-ditl, %d records, %d hours\n", j, len(st.recs), (st.recs[len(st.recs)-1].Time-st.recs[0].Time)/simtime.Time(simtime.Hour))
	}
	if r.tr != nil {
		return liveTraced(r, inputs)
	}
	var p50s, p99s, rates, pooled []float64
	r.loop(len(inputs), func(i int) {
		st := inputs[i%len(inputs)]
		res := st.replay(liveRate, nil, nil)
		r.op(res.err)
		lat := res.sorted()
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		// The engine's capacity: records per second of time spent inside
		// Ingest, rescores included.
		rates = append(rates, float64(len(st.recs))/res.busy.Seconds())
		pooled = append(pooled, lat...)
		fmt.Printf("op %d: input %d at %.0f rec/s p50 %.3f ms p99 %.3f ms; capacity %.0f rec/s\n",
			len(p50s), i%len(inputs), liveRate, p50s[len(p50s)-1], p99s[len(p99s)-1], rates[len(rates)-1])
	})
	r.set("latency_ms", median(p50s), "ms")
	r.set("throughput_per_s", median(rates), "1/s")
	fmt.Printf("live_p99_ms %.3f ms (printed, not gated), median of %d ops\n", median(p99s), len(p99s))

	pooled = sortedCopy(pooled)
	if p, v, ok := tail(pooled); ok {
		fmt.Printf("latency at %.0f rec/s over all %d records of %d ops: p50 %.3f ms, p99 %.3f ms, p%g %.3f ms\n",
			liveRate, len(pooled), len(p50s), percentile(pooled, 50), percentile(pooled, 99), p, v)
	}

	// One search of the rate ladder over the first input after the timed
	// ops, starting at the rung the measured capacity implies, for the
	// sustained rate.
	best, probes := climb(ladderRung(median(rates)), maxProbes, func(k int) bool {
		res := inputs[0].replay(ladderRate(k), nil, nil)
		r.op(res.err)
		p99, grows := percentile(res.sorted(), 99), backlogGrows(res.lat, liveP99Limit)
		ok := res.err == nil && p99 <= ms(liveP99Limit) && !grows
		fmt.Printf("  rung %d: %.0f rec/s offered, p99 %.2f ms, backlog growing %v: %v\n", k, ladderRate(k), p99, grows, ok)
		return ok
	})
	if best >= 0 {
		fmt.Printf("live_sustained_rps %.0f 1/s (printed, not gated) after %d probes\n", ladderRate(best), probes)
	} else {
		fmt.Printf("live_sustained_rps: no rung met the limit in %d probes\n", probes)
	}
	return nil
}

// liveTraced alternates untraced and traced ops at the named rate. The
// traced ones record a span per Ingest call and per alert evaluation; the
// tracing overhead is the difference of the two kinds' median p50.
func liveTraced(r *run, inputs []*liveState) error {
	acc := newLayerAcc()
	var plain, traced []float64
	r.loop(2, func(i int) {
		st := inputs[i/2%len(inputs)]
		t := r.tr
		if i%2 == 0 {
			t = nil
		}
		res := st.replay(liveRate, t, acc)
		r.op(res.err)
		lat := res.sorted()
		if t == nil {
			plain = append(plain, percentile(lat, 50))
			return
		}
		traced = append(traced, percentile(lat, 50))
		acc.ops++
	})
	acc.emit(r, r.tr.snapshot())
	p, t := median(plain), median(traced)
	r.set("trace.overhead_pct", 100*(t-p)/p, "%")
	return nil
}

// liveResult is one replay's outcome.
type liveResult struct {
	lat  []time.Duration // per record, from its due time
	busy time.Duration   // time spent inside Ingest calls
	err  error
}

// sorted returns the latencies in milliseconds, sorted.
func (res liveResult) sorted() []float64 {
	lat := make([]float64, len(res.lat))
	for i, l := range res.lat {
		lat[i] = ms(l)
	}
	return sortedCopy(lat)
}

// replay offers every record at rate into a fresh engine, one record per
// Ingest call as bsserve's sink feeds it, with an alert goroutine running
// alongside as bsserve's alertLoop does. With a tracer, each Ingest call
// gets a span (stream.rescore when the record crosses an epoch and so
// triggers a rescore, stream.ingest otherwise) and acc collects the
// layers' counts. The final snapshot must equal the batched replay's.
func (st *liveState) replay(rate float64, t *tracer, acc *layerAcc) liveResult {
	reg := obs.NewRegistry()
	win := obs.NewWindow(liveWindow)
	reg.SetWindow(win)
	total := reg.Counter("served_records_total")
	nx := reg.Counter("served_records_nxdomain_total")
	e := st.engine(reg)
	op := t.beginOp("bench.live_op")

	stop := make(chan struct{})
	done := make(chan alertStats)
	go func() { done <- alertLoop(stop, alert.New(alert.DefaultRules()), win, e, t, op) }()

	var busy time.Duration
	hour := st.recs[0].Time / simtime.Time(liveEpoch)
	c := wallClock{origin: time.Now()}
	var clk clock = c
	if t != nil {
		clk = idleClock{c, t, op}
	}
	lat, lateness := openLoop(len(st.recs), rate, clk, func(i int) {
		rec := st.recs[i]
		b0 := c.Now()
		var s0 time.Duration
		if t != nil {
			s0 = t.now()
		}
		total.IncAt(rec.Time)
		if rec.RCode == 3 {
			nx.IncAt(rec.Time)
		}
		e.Ingest(st.recs[i : i+1])
		if t != nil {
			name := "stream.ingest"
			if h := rec.Time / simtime.Time(liveEpoch); h > hour {
				hour = h
				name = "stream.rescore"
			}
			t.add(name, op, s0, t.now())
		}
		busy += c.Now() - b0
	})
	close(stop)
	as := <-done
	t.end(op)

	res := liveResult{lat: lat, busy: busy}
	status := e.Status()
	e.Tick(st.end)
	if got := e.Snapshot(); !bytes.Equal(got, st.ref) {
		res.err = fmt.Errorf("live snapshot at %.0f rec/s differs from the batched replay's", rate)
	}
	if t != nil {
		acc.add("stream.kept", float64(status.Kept))
		acc.add("stream.records", float64(status.Records))
		acc.atLeast("stream.tracked", float64(max(as.tracked, status.Tracked)))
		acc.add("alert.transitions", float64(as.transitions))
		for _, l := range lateness {
			acc.sample("stream.gen_lateness_ms", ms(l))
		}
	}
	return res
}

type alertStats struct{ tracked, transitions int }

// alertLoop evaluates the alert rules every alertEvery against the window
// and the engine's status until stop closes, like bsserve's alertLoop.
// Only complete buckets up to the engine's record watermark are
// evaluated, since replayed records carry simulated time.
func alertLoop(stop <-chan struct{}, al *alert.Engine, win *obs.Window, e *stream.Engine, t *tracer, op int32) alertStats {
	tick := time.NewTicker(alertEvery)
	defer tick.Stop()
	var as alertStats
	for {
		select {
		case <-stop:
			as.transitions = len(al.Log())
			return as
		case <-tick.C:
		}
		id := t.begin("alert.eval", op)
		s := e.Status()
		al.Eval(alert.Data{Series: win.Timeseries(), Through: s.Watermark, Stream: s.Values()})
		t.end(id)
		as.tracked = max(as.tracked, s.Tracked)
	}
}

// idleClock records the open loop's sleeps as idle spans, so the time
// the generator waits for due records is not counted as the benchmark's
// own work.
type idleClock struct {
	wallClock
	t  *tracer
	op int32
}

func (c idleClock) Sleep(d time.Duration) { c.t.call("idle.sleep", c.op, func() { time.Sleep(d) }) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
