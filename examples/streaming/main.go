// Streaming: run the sensor the way an operator would at the paper's real
// volumes (Table I: billions of queries) — parse a wire-format capture
// stream and feed it batch by batch through the bounded-memory streaming
// engine (HyperLogLog footprints + bottom-k querier samples), which
// classifies the approximate vectors with a model trained on exact ones.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	backscatter "dnsbackscatter"
)

func main() {
	spec := backscatter.JPDitl().Scaled(0.5)
	fmt.Printf("simulating %s...\n", spec.Name)
	ds := backscatter.Build(spec)

	// Serialize the authority's view as a packet capture — what a sensor
	// tapping the wire actually has (§III-A).
	var capture bytes.Buffer
	if err := backscatter.WriteCapture(&capture, ds.Records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture stream: %d records, %.1f MB\n",
		len(ds.Records), float64(capture.Len())/(1<<20))

	// The engine scores with a model trained on the curated labels — the
	// approximate features must stay classifier-compatible.
	model, err := ds.TrainClassifier(1)
	if err != nil {
		log.Fatal(err)
	}
	engine := ds.NewStream(backscatter.StreamSpec{}, model)

	// Stream the capture through the engine in batches, as a live sensor
	// receives it, then score the whole window.
	recs, err := backscatter.ReadCapture(&capture)
	if err != nil {
		log.Fatal(err)
	}
	const batch = 4096
	for i := 0; i < len(recs); i += batch {
		engine.Ingest(recs[i:min(i+batch, len(recs))])
	}
	engine.Tick(spec.Start.Add(spec.Duration))
	approx := engine.Vectors()
	exact := ds.Whole().Vectors
	fmt.Printf("originators: %d exact vs %d streamed (threshold ≥%d queriers)\n",
		len(exact), len(approx), ds.Extractor.MinQueriers)

	// Footprint accuracy of the HLL estimates.
	exactBy := make(map[backscatter.Addr]int)
	for _, v := range exact {
		exactBy[v.Originator] = v.Queriers
	}
	var worst, sum float64
	n := 0
	for _, v := range approx {
		e, ok := exactBy[v.Originator]
		if !ok {
			continue
		}
		rel := math.Abs(float64(v.Queriers-e)) / float64(e)
		sum += rel
		n++
		if rel > worst {
			worst = rel
		}
	}
	if n > 0 {
		fmt.Printf("footprint estimates: mean error %.1f%%, worst %.1f%% (HLL p=11 ≈ 2.3%% σ)\n",
			100*sum/float64(n), 100*worst)
	}

	// The engine's verdicts on the streamed vectors, against ground truth.
	agree, scored := 0, 0
	for a, c := range engine.Verdicts() {
		if truth, ok := ds.Truth(a); ok {
			scored++
			if c == truth {
				agree++
			}
		}
	}
	if scored > 0 {
		fmt.Printf("classification of streamed vectors: %d/%d (%.0f%%) agree with ground truth\n",
			agree, scored, 100*float64(agree)/float64(scored))
	}
	st := engine.Status()
	fmt.Printf("\nthe streaming engine tracked %d of at most %d originators, each in fixed state:\n",
		st.Tracked, st.MaxTracked)
	fmt.Printf("  2 KB HLL + %d-querier sample + persistence counter\n",
		backscatter.DefaultStreamSpec().SampleK)
}
