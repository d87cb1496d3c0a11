package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"pervasivegrid/internal/obs"
)

// HTTP exposition of the fleet view. Handler extends obs.Handler with
// the telemetry-plane endpoints:
//
//	GET /metrics       Prometheus text — fleet-merged, node-labeled
//	GET /metrics.json  the same snapshot as JSON
//	GET /healthz       200 while no node is down, 503 otherwise
//	GET /fleet.json    FleetView: per-node snapshot + health states
//	GET /traces        stitched cross-node trace IDs (text)
//	GET /trace?id=..   one stitched timeline (text; hex or decimal id)
//	GET /events.json   fleet-merged wide events (one row per conversation)
//
// Mount it on the daemon's metrics listener.
func Handler(m *Monitor, extra ...obs.Source) http.Handler {
	mux := http.NewServeMux()
	sources := append([]obs.Source{m}, extra...)
	mux.Handle("/", obs.Handler(sources...))

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fv := m.Fleet()
		status := "ok"
		code := http.StatusOK
		nodes := map[string]Health{}
		for _, nv := range fv.Nodes {
			nodes[nv.Node] = nv.Health
			if nv.Health == Down {
				status = "down"
				code = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": status,
			"worst":  fv.Worst,
			"nodes":  nodes,
		})
	})

	mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Fleet())
	})

	mux.Handle("/events.json", obs.EventsHandler(m.Events()))

	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// One copy of the ring, counted in one pass: IDs in first-seen
		// order, as Tracer.Traces lists them.
		var ids []uint64
		spans := map[uint64]int{}
		for _, s := range m.Tracer().Spans() {
			if s.Trace == 0 {
				continue
			}
			if spans[s.Trace] == 0 {
				ids = append(ids, s.Trace)
			}
			spans[s.Trace]++
		}
		for _, id := range ids {
			fmt.Fprintf(w, "%016x (%d spans)\n", id, spans[id])
		}
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("id")
		id, err := strconv.ParseUint(raw, 16, 64)
		if err != nil {
			if id, err = strconv.ParseUint(raw, 10, 64); err != nil {
				http.Error(w, "trace: bad or missing id", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, m.Timeline(id))
	})

	return mux
}
