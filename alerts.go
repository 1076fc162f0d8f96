package backscatter

import (
	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/trace"
)

// Alerting vocabulary, re-exported like the rest of the core types so
// users never import internal packages.
type (
	// AlertEngine is the deterministic rule engine: it replays
	// declarative alert and SLO rules over windowed metric series,
	// driving each rule through a pending → firing → resolved state
	// machine clocked purely by simulated time. See internal/alert's
	// package documentation for the determinism contract.
	AlertEngine = alert.Engine
	// AlertRule is one parsed rule from an alerts.rules file.
	AlertRule = alert.Rule
	// AlertTransition is one state-machine edge in the canonical
	// transition log (the alerts.jsonl line format).
	AlertTransition = alert.Transition
	// AlertData is one evaluation input bundle: the series document,
	// stream status scalars, exemplar lookup, and watermark.
	AlertData = alert.Data
	// AlertFilter narrows status and text renders by state or severity.
	AlertFilter = alert.Filter
	// TraceExemplar is one worst-offender trace reference attached to a
	// firing transition.
	TraceExemplar = trace.Exemplar
)

// ParseAlertRules parses an alerts.rules file (see DefaultAlertRulesText
// for the grammar by example). Errors carry 1-based line numbers.
func ParseAlertRules(src string) ([]AlertRule, error) { return alert.Parse(src) }

// DefaultAlertRules returns the built-in rule set — the parsed form of
// DefaultAlertRulesText, which the checked-in alerts.rules mirrors.
func DefaultAlertRules() []AlertRule { return alert.DefaultRules() }

// DefaultAlertRulesText is the source text of the built-in rules.
const DefaultAlertRulesText = alert.DefaultRulesText

// NewAlertEngine returns an engine over the given rules; empty rules
// return nil, and a nil engine is a fully inert no-op on every method.
func NewAlertEngine(rules []AlertRule) *AlertEngine { return alert.New(rules) }

// Alerts replays the dataset's alert rules (Spec.Alerts; see WithAlerts)
// against its windowed metrics and committed traces and returns the
// evaluated engine. Each call re-evaluates from scratch, so the engine
// reflects everything recorded up to now — after the build, and again
// after later pipeline runs that keep recording into the same registry.
//
// Evaluation is clocked purely by simulated bucket time: the transition
// log (Log, JSONL) is byte-identical at any worker count. Datasets built
// without rules — or without an observability registry and window —
// return nil, which is a safe no-op engine.
//
//bslint:detroot
func (d *Dataset) Alerts() *AlertEngine {
	if d == nil || len(d.alertRules) == 0 || d.Spec.Obs.Window() == nil {
		return nil
	}
	eng := alert.New(d.alertRules)
	data := alert.Data{
		Series:  d.Spec.Obs.Window().Timeseries(),
		Through: d.Spec.Start.Add(d.Spec.Duration),
	}
	if d.tracer != nil {
		data.Exemplars = d.tracer.Exemplars
	}
	eng.Eval(data)
	return eng
}
