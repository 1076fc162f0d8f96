// Command bstrend runs the paper's longitudinal analyses (§VI-C) over a
// simulated long-term dataset: weekly per-class originator counts, scanner
// churn, and /24 scanning teams.
//
// Usage:
//
//	bstrend -dataset m-sampled -scale 0.3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/obs"
)

func main() {
	var (
		dataset = flag.String("dataset", "m-sampled", "m-sampled, b-long, or b-multi-year")
		scale   = flag.Float64("scale", 0.3, "population scale factor")
		minTeam = flag.Int("team", 4, "minimum /24 co-located originators to flag a team")
	)
	flag.Parse()

	var spec backscatter.DatasetSpec
	switch strings.ToLower(*dataset) {
	case "m-sampled":
		spec = backscatter.MSampled()
	case "b-long":
		spec = backscatter.BLong()
	case "b-multi-year":
		spec = backscatter.BMultiYear()
	default:
		fmt.Fprintf(os.Stderr, "bstrend: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "bstrend: simulating %s at scale %.2f...\n", spec.Name, *scale)
	// Bucket world metrics by the dataset's own feature interval, so the
	// activity strip below comes straight from the windowed time-series
	// JSON document rather than a recount of the campaign list.
	reg := backscatter.NewRegistry()
	reg.SetWindow(backscatter.NewWindow(spec.Interval))
	spec = spec.Scaled(*scale)
	spec.Obs = reg
	d := backscatter.Build(spec)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	// Consume the same JSON document bsrepro -timeseries writes; the
	// parse round-trip keeps this renderer honest about the format.
	ts, err := obs.ParseTimeseries(reg.Window().SnapshotJSON())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bstrend: timeseries: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "world activity per interval (windowed time series, %dh buckets):\n", ts.Width/3600)
	for _, s := range ts.Series {
		fmt.Fprintf(w, "  %-42s %s\n", s.Metric, obs.SparkSeries(s, ts.Width))
	}
	fmt.Fprintf(w, "\n")

	weekly := d.ClassifyIntervals()
	fmt.Fprintf(w, "originators per interval (%d intervals):\n", len(weekly))
	fmt.Fprintf(w, "interval\tstart\ttotal\tscan\tspam\tmail\tcdn\n")
	for i, wk := range weekly {
		counts := backscatter.ClassCounts(wk)
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			i, d.Snapshots[i].Start, total,
			counts[backscatter.Scan], counts[backscatter.Spam],
			counts[backscatter.Mail], counts[backscatter.CDN])
	}

	fmt.Fprintf(w, "\nscanner churn (new / continuing / departing):\n")
	for _, p := range backscatter.Churn(weekly, backscatter.Scan) {
		fmt.Fprintf(w, "%d\t+%d\t=%d\t-%d\n", p.Week, p.New, p.Continuing, p.Departing)
	}

	// Teams over the cumulative classification.
	all := make(map[backscatter.Addr]backscatter.Class)
	for _, wk := range weekly {
		for a, c := range wk {
			all[a] = c
		}
	}
	st := backscatter.ScannerTeams(all, *minTeam)
	fmt.Fprintf(w, "\nscanner teams: %d scanners in %d /24 blocks; %d blocks with ≥%d members (%d all-scan)\n",
		st.UniqueScanners, st.Blocks, st.BlocksWithNPlus, *minTeam, st.SameClassBlocks)
}
