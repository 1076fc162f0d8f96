package backscatter

import (
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
)

// Algorithm selects the classification algorithm (§III-D).
type Algorithm int

// The paper's three algorithms.
const (
	AlgCART Algorithm = iota
	AlgRandomForest
	AlgSVM
)

// String returns the paper's algorithm label.
func (a Algorithm) String() string {
	switch a {
	case AlgCART:
		return "CART"
	case AlgRandomForest:
		return "RF"
	case AlgSVM:
		return "SVM"
	default:
		return "unknown"
	}
}

// Trainer returns the underlying ml.Trainer.
func (a Algorithm) Trainer() ml.Trainer {
	switch a {
	case AlgCART:
		return ml.CART{Config: ml.CARTConfig{MaxDepth: 12}}
	case AlgSVM:
		return ml.SVM{}
	default:
		return ml.Forest{Config: ml.ForestConfig{Trees: 60}}
	}
}

// Model is a trained originator classifier.
type Model = classify.Model

// LabeledSet is a curated set of (originator, class) labels.
type LabeledSet = groundtruth.LabeledSet

// TrainClassifier trains the paper's preferred configuration (Random
// Forest, majority of votes runs) on the dataset's curated labels over the
// full span. votes <= 1 trains a single forest.
func (d *Dataset) TrainClassifier(votes int) (*Model, error) {
	return d.TrainWith(AlgRandomForest, votes, d.Labels)
}

// TrainWith trains a specific algorithm on the given labels. On datasets
// built with a registry (Spec.Obs), training and later ClassifyAll calls
// record into it as the "train" and "classify" stages.
func (d *Dataset) TrainWith(alg Algorithm, votes int, labels *LabeledSet) (*Model, error) {
	p := classify.NewPipeline()
	p.Trainer = alg.Trainer()
	p.Obs = d.Spec.Obs
	p.Acct = d.Spec.Acct
	p.Workers = d.Spec.Workers
	if votes > 1 {
		p.Votes = votes
	}
	st := rng.NewSource(d.Spec.Seed).Stream("train-" + alg.String())
	return p.Train(d.Whole(), labels, st)
}

// Validate runs the paper's §IV-C protocol on this dataset: `runs` random
// splits at trainFrac, returning mean±std metrics for the algorithm.
func (d *Dataset) Validate(alg Algorithm, trainFrac float64, runs int) (ml.ValidationResult, error) {
	p := classify.NewPipeline()
	ds, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return ml.ValidationResult{}, err
	}
	st := rng.NewSource(d.Spec.Seed).Stream("validate-" + alg.String())
	v := ml.Validator{
		Trainer:   alg.Trainer(),
		TrainFrac: trainFrac,
		Runs:      runs,
		Workers:   d.Spec.Workers,
		Obs:       d.Spec.Obs,
		Acct:      d.Spec.Acct,
	}
	return v.Run(ds, st), nil
}

// FeatureImportance trains a Random Forest on the dataset's labels and
// returns the top-k features by Gini importance with their names
// (Table IV).
func (d *Dataset) FeatureImportance(k int) ([]string, []float64, error) {
	p := classify.NewPipeline()
	ds, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return nil, nil, err
	}
	st := rng.NewSource(d.Spec.Seed).Stream("importance")
	cfg := ml.ForestConfig{Trees: 100, Workers: d.Spec.Workers, Obs: d.Spec.Obs, Acct: d.Spec.Acct}
	forest := ml.Forest{Config: cfg}.TrainForest(ds, st)
	names := FeatureNames()
	var outNames []string
	var outVals []float64
	for _, fr := range forest.TopFeatures(k) {
		outNames = append(outNames, names[fr.Feature])
		outVals = append(outVals, fr.Importance)
	}
	return outNames, outVals, nil
}
