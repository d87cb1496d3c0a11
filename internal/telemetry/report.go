// Package telemetry is the fleet observability plane: it hosts the
// monitoring system *on the same substrate it observes* (Kirby et al.'s
// active-architecture argument). Every node runs a lightweight reporter
// deputy that periodically ships its metric snapshot (delta-encoded) and
// recent trace spans to a MonitorAgent over ordinary envelopes. A report
// is sent once: a delta names the report it was computed against, the
// monitor applies only a delta whose base it holds, and it refuses the
// rest with one reply that makes the next report full — so a lost report
// costs freshness, never correctness.
// The monitor merges per-node snapshots, derives health states from
// report staleness, stitches cross-node trace timelines, and feeds the
// measured per-node transport cost back into the partition decision
// maker (partition.ObservedFromSnapshot → ApplyObserved).
package telemetry

import (
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
)

// Envelope vocabulary of the telemetry plane. Reports are ordinary
// envelopes: JSON content, the telemetry ontology, an "inform"
// performative — any platform can route them, and the fault injector can
// drop them like any other traffic.
const (
	// MonitorID is the well-known agent ID of the fleet monitor.
	MonitorID agent.ID = "fleet-monitor"
	// OntologyReport marks a telemetry report envelope.
	OntologyReport = "pgrid-telemetry-report"
	// OntologyProbe marks a transport probe (echo) conversation.
	OntologyProbe = "pgrid-telemetry-probe"
)

// Report is one node's periodic telemetry shipment.
type Report struct {
	// Node is the reporting platform's name.
	Node string `json:"node"`
	// Boot is the reporter's start time on its clock. It names the
	// reporter's incarnation: a newer Boot restarts the node's seq state.
	Boot time.Time `json:"boot"`
	// Seq numbers this incarnation's reports; the monitor drops one at or
	// below the highest it has seen and counts gaps as lost reports.
	Seq uint64 `json:"seq"`
	// Base is the seq of the report this delta was computed against
	// (obs.Snapshot.Delta); 0 means Snap is a full snapshot.
	Base uint64 `json:"base,omitempty"`
	// Snap is the delta-encoded (or full) metric snapshot.
	Snap obs.Snapshot `json:"snap"`
	// Spans are the trace spans recorded since the previous report.
	Spans []obs.Span `json:"spans,omitempty"`
	// Events are the wide events emitted since the previous report.
	Events []obs.Event `json:"events,omitempty"`
	// SpansSampled/SpansDropped/SpansEvicted mirror the tracer's
	// sampling ledger (lifetime totals), so the monitor can tell how
	// much of each node's trace volume was retained, head-dropped, or
	// overwritten — loss is never silent, fleet-wide.
	SpansSampled uint64 `json:"spansSampled,omitempty"`
	SpansDropped uint64 `json:"spansDropped,omitempty"`
	SpansEvicted uint64 `json:"spansEvicted,omitempty"`
	// Delivered/Dropped/Retries mirror the platform's DeliveryStats
	// totals so the monitor can compute delivery ratios without
	// depending on metric names.
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Retries   uint64 `json:"retries"`
	// SentAt is the node's clock when the report was built (virtual
	// under FakeClock); the monitor tracks staleness on its own clock.
	SentAt time.Time `json:"sentAt"`
}
