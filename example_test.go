package backscatter_test

import (
	"fmt"

	backscatter "dnsbackscatter"
)

// ExampleClassifyName shows the §III-C static name rules: components are
// scanned left to right and the first matching rule wins, so compound
// names resolve the way the paper specifies.
func ExampleClassifyName() {
	for _, name := range []string{
		"home1-2-3-4.example.com",
		"mail.ns.example.com", // both mail and ns: mail wins
		"a96-7-0-1.deploy.akamaitechnologies.com",
		"zeus17.example.com", // no rule: other-unclassified
		"",                   // no reverse name
	} {
		fmt.Printf("%-42q %s\n", name, backscatter.ClassifyName(name))
	}
	// Output:
	// "home1-2-3-4.example.com"                  home
	// "mail.ns.example.com"                      mail
	// "a96-7-0-1.deploy.akamaitechnologies.com"  cdn
	// "zeus17.example.com"                       other
	// ""                                         nxdomain
}

// ExampleParseClass round-trips the paper's application-class labels.
func ExampleParseClass() {
	cls, ok := backscatter.ParseClass("spam")
	fmt.Println(cls, ok, cls.Malicious())
	// Output:
	// spam true true
}

// ExampleDatasetSpec_Scaled shows sizing a paper dataset for a quick run.
func ExampleDatasetSpec_Scaled() {
	spec := backscatter.JPDitl().Scaled(0.25)
	fmt.Println(spec.Name, spec.Authority, spec.Sample == 1)
	// Output:
	// JP-ditl jp true
}

// ExampleDatasetSpec_WithParallelism runs the same build-train-classify
// pipeline sequentially and on eight workers: parallelism changes the
// wall-clock, never the output.
func ExampleDatasetSpec_WithParallelism() {
	run := func(workers int) map[backscatter.Addr]backscatter.Class {
		spec := backscatter.JPDitl().Scaled(0.3).WithParallelism(workers)
		spec.Duration = backscatter.Duration(12 * 3600)
		spec.Interval = spec.Duration
		spec.MinQueriers = 8
		ds := backscatter.Build(spec)
		model, err := ds.TrainClassifier(1)
		if err != nil {
			fmt.Println("train:", err)
			return nil
		}
		return model.ClassifyAll(ds.Whole())
	}
	sequential, parallel := run(1), run(8)
	identical := len(sequential) == len(parallel)
	for a, cls := range sequential {
		if parallel[a] != cls {
			identical = false
		}
	}
	fmt.Println(len(sequential) > 10, identical)
	// Output:
	// true true
}

// ExampleDataset_NewStream feeds a dataset's records through the
// bounded-memory streaming engine — the operational alternative to
// Extract when logs exceed memory — and scores approximate vectors.
func ExampleDataset_NewStream() {
	spec := backscatter.JPDitl().Scaled(0.3)
	spec.Duration = backscatter.Duration(12 * 3600)
	spec.Interval = spec.Duration
	spec.MinQueriers = 8
	ds := backscatter.Build(spec)

	e := ds.NewStream(backscatter.StreamSpec{}, nil)
	e.Ingest(ds.Records)
	e.Tick(spec.Start.Add(spec.Duration))
	fmt.Println(e.Tracked() > 0, len(e.Vectors()) > 10)
	// Output:
	// true true
}

// Example_pipeline builds a tiny dataset and runs the full Figure 2
// pipeline: curated labels → Random Forest → originator classes.
func Example_pipeline() {
	spec := backscatter.JPDitl().Scaled(0.3)
	spec.Duration = backscatter.Duration(12 * 3600)
	spec.Interval = spec.Duration
	spec.MinQueriers = 8
	ds := backscatter.Build(spec)

	model, err := ds.TrainClassifier(1)
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	classes := model.ClassifyAll(ds.Whole())
	fmt.Println(len(classes) > 10, len(classes) == len(ds.Whole().Vectors))
	// Output:
	// true true
}
