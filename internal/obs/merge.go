package obs

import "strings"

// Snapshot algebra for the fleet telemetry plane: the aggregator keeps a
// copy of each node's newest snapshot (Clone), and the merged fleet
// snapshot labels every series with its origin node (MergeByNode) so one
// scrape shows the whole deployment without series collisions.

// Clone deep-copies a snapshot.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]float64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	return out
}

// Len reports the total number of series in the snapshot.
func (s Snapshot) Len() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// withLabelKey splices an extra label into a rendered series key:
// `name` -> `name{k="v"}` and `name{a="b"}` -> `name{a="b",k="v"}`.
// The label is appended rather than sorted into place — exposition
// formats do not require sorted label sets, and appending avoids
// re-parsing label values (which may contain commas).
func withLabelKey(key, k, v string) string {
	suffix := k + `="` + escapeLabel(v) + `"`
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:len(key)-1] + "," + suffix + "}"
	}
	return key + "{" + suffix + "}"
}

// WithLabel returns a copy of the snapshot with label k=v spliced into
// every series key.
func (s Snapshot) WithLabel(k, v string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]float64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for key, val := range s.Counters {
		out.Counters[withLabelKey(key, k, v)] = val
	}
	for key, val := range s.Gauges {
		out.Gauges[withLabelKey(key, k, v)] = val
	}
	for key, val := range s.Histograms {
		out.Histograms[withLabelKey(key, k, v)] = val
	}
	return out
}

// MergeByNode merges per-node snapshots into one fleet view, labeling
// every series with node="name" so identical series from different nodes
// stay distinct (unlike Merge, which lets the later source win).
func MergeByNode(nodes map[string]Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, s := range nodes {
		labeled := s.WithLabel("node", name)
		for k, v := range labeled.Counters {
			out.Counters[k] = v
		}
		for k, v := range labeled.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range labeled.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}
