// Package telemetry is the fleet observability plane: it hosts the
// monitoring system *on the same substrate it observes* (Kirby et al.'s
// active-architecture argument). Every node runs a lightweight reporter
// deputy that periodically ships its full metric snapshot and recent
// trace spans to a MonitorAgent over ordinary envelopes. A report is sent
// once and needs no earlier one: the monitor keeps the newest report's
// snapshot, so a lost report costs one interval of freshness, never
// correctness.
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
	// Snap is the node's full metric snapshot. It carries
	// the node's delivery accounting (agent_delivered_total,
	// agent_dead_letter_total, agent_retries_total) and, where the
	// node's tracer is attached to a reported registry, its sampling
	// ledger (trace_sampled_total, trace_dropped_total,
	// trace_evicted_total); the report copies none of them.
	Snap obs.Snapshot `json:"snap"`
	// Spans are the trace spans recorded since the previous report.
	Spans []obs.Span `json:"spans,omitempty"`
	// Events are the wide events emitted since the previous report.
	Events []obs.Event `json:"events,omitempty"`
	// SentAt is the node's clock when the report was built (virtual
	// under FakeClock); the monitor tracks staleness on its own clock.
	SentAt time.Time `json:"sentAt"`
}
