// Package backscatter identifies and classifies network-wide activity
// from DNS backscatter — the reverse (PTR) DNS queries that firewalls,
// mail servers, and middleboxes emit when one computer (the originator)
// touches many others (the targets).
//
// It is a full reproduction of Fukuda, Heidemann & Qadeer, "Detecting
// Malicious Activity with DNS Backscatter Over Time" (IEEE/ACM ToN 2017;
// IMC 2015). The pipeline follows the paper's Figure 2:
//
//	authority query logs → 30 s dedup → analyzable originators (≥20
//	queriers) → static name features + dynamic spatio-temporal features →
//	machine-learned classifier (CART / Random Forest / kernel SVM) →
//	application classes (spam, scan, mail, cdn, ad-tracker, ...)
//
// Because the paper's operational traces (JP-DNS, B-Root, M-Root) are not
// redistributable, the package ships a deterministic synthetic Internet
// (see Build and the DatasetSpec constructors mirroring the paper's
// Table I) that reproduces the generative process those traces recorded.
// The same classification pipeline runs unchanged on real logs via ReadLog
// and ReadCapture.
//
// # Quick start
//
//	ds := backscatter.Build(backscatter.JPDitl().Scaled(0.3))
//	model, _ := ds.TrainClassifier(1)
//	for orig, class := range model.ClassifyAll(ds.Whole()) {
//	    fmt.Println(orig, class)
//	}
//
// # Determinism and parallelism
//
// Every run is a pure function of its DatasetSpec: randomness comes only
// from seeded streams, time only from the simulated clock. The heavy
// pipeline stages (extract, train, validate, classify) run on a bounded
// worker pool — DatasetSpec.Workers or WithParallelism sets the width —
// and any worker count produces byte-identical snapshots, models, and
// reports. See ARCHITECTURE.md for the contract that keeps this true.
package backscatter

import (
	"io"
	"time"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnscap"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// Core vocabulary, re-exported so users never import internal packages.
type (
	// Addr is an IPv4 address.
	Addr = ipaddr.Addr
	// Class is an application class (Spam, Scan, Mail, ...).
	Class = activity.Class
	// Record is one observed reverse query at an authority.
	Record = dnslog.Record
	// Vector is one originator's feature vector over an interval.
	Vector = features.Vector
	// Snapshot is one observation interval's analyzable originators.
	Snapshot = classify.Snapshot
	// Metrics holds accuracy / precision / recall / F1.
	Metrics = ml.Metrics
	// ValidationResult aggregates repeated random-split validation.
	ValidationResult = ml.ValidationResult
	// MeanStd summarizes repeated measurements.
	MeanStd = ml.MeanStd
	// Time is a simulated instant (Unix seconds UTC).
	Time = simtime.Time
	// Duration is a simulated time span in seconds.
	Duration = simtime.Duration
	// NameCategory is a static querier-name class (home, mail, ns, ...).
	NameCategory = qname.Category
)

// Application classes, in the paper's order (§III-D).
const (
	AdTracker  = activity.AdTracker
	CDN        = activity.CDN
	Cloud      = activity.Cloud
	Crawler    = activity.Crawler
	DNSServer  = activity.DNSServer
	Mail       = activity.Mail
	NTP        = activity.NTP
	P2P        = activity.P2P
	Push       = activity.Push
	Scan       = activity.Scan
	Spam       = activity.Spam
	Update     = activity.Update
	NumClasses = activity.NumClasses
)

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return ipaddr.Parse(s) }

// ParseClass maps a class label ("spam", "scan", ...) to its Class.
func ParseClass(s string) (Class, bool) { return activity.ParseClass(s) }

// ClassifyName maps a querier reverse name to its static name category
// using the paper's §III-C keyword rules.
func ClassifyName(name string) NameCategory { return qname.Classify(name) }

// FeatureNames returns the feature-vector column names in order.
func FeatureNames() []string { return features.Names() }

// ReadLog parses a query log (one record per line, as written by
// WriteLog) into records.
func ReadLog(r io.Reader) ([]Record, error) {
	return dnslog.NewReader(r).ReadAll()
}

// WriteLog writes records in the line format ReadLog parses.
func WriteLog(w io.Writer, recs []Record) error {
	lw := dnslog.NewWriter(w)
	for _, rec := range recs {
		if err := lw.Write(rec); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// WriteCapture writes records as a framed DNS wire-format capture stream
// (the packet-capture collection path of §III-A): each frame holds a
// pseudo-header plus the reverse PTR query in RFC 1035 encoding.
func WriteCapture(w io.Writer, recs []Record) error {
	cw := dnscap.NewWriter(w)
	for _, rec := range recs {
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// ReadCapture parses a capture stream back to records, skipping frames
// that are not reverse PTR queries (forward traffic is not backscatter).
func ReadCapture(r io.Reader) ([]Record, error) {
	return dnscap.NewReader(r).ReadAll()
}

// Date constructs a Time from a UTC calendar date.
func Date(year, month, day, hour, min int) Time {
	return simtime.Date(year, time.Month(month), day, hour, min)
}
