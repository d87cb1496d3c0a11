package discovery

import (
	"slices"
	"strings"
	"sync"

	"pervasivegrid/internal/ontology"
)

// Broker is a discovery agent owning a registry and knowing peer brokers —
// the "distributed set of brokers" the paper proposes instead of UDDI's
// "highly centralized model". Lookups can stay local or fan out one hop to
// peers.
type Broker struct {
	Name    string
	Reg     *Registry
	Matcher Matcher

	mu    sync.RWMutex
	peers []*Broker
}

// NewBroker builds a broker with its own registry.
func NewBroker(name string, m Matcher) *Broker {
	return &Broker{Name: name, Reg: NewRegistry(), Matcher: m}
}

// Peer links another broker (bidirectionally when mutual is true). Linking
// nil or self is ignored.
func (b *Broker) Peer(other *Broker, mutual bool) {
	if other == nil || other == b {
		return
	}
	b.mu.Lock()
	b.peers = append(b.peers, other)
	b.mu.Unlock()
	if mutual {
		other.Peer(b, false)
	}
}

// Peers snapshots the peer list.
func (b *Broker) Peers() []*Broker {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]*Broker(nil), b.peers...)
}

// LookupLocal matches only against this broker's registry.
func (b *Broker) LookupLocal(req ontology.Request) []Match {
	return b.Reg.Lookup(b.Matcher, req)
}

// Lookup matches locally and, when the local result set is smaller than
// want, fans out one hop to peers and merges the ranked results
// (deduplicated by profile name, best score wins). want is only the
// fan-out threshold — 0 always asks the peers, and a satisfied want still
// returns every local match; the bound on the result is req.Max, which
// each registry's matcher applies and the merge applies again.
//
// Budget 44: the snapshot rebuild that the first read after a mutation
// pays (3: the view, its profiles, and its signature numbers and slots in
// one array), its signature interning (1) and its posting lists (1, the
// offsets and the positions in one array), the SemanticMatcher's
// constraint pass and scoring (10), which Registry.Lookup calls directly,
// and its walk of the posting lists for a request with no preference (6:
// the signatures ranked, a value and an append that spills past the
// stack buffer; the constraints bound, an append; the result, its make,
// an append and a value), the peer merge (2), obs.Registry creating the
// discovery_* series on first use (9), and the columns (12). A full
// rebuild starts a key map and a queue of profiles to write (a make);
// placing a profile queues it (an append); writing starts a column (an
// append and its literal), grows its cells (an append, the make it
// appends and the make that first sizes them) and keeps a new distinct
// string (a map and an append); a match binds a field and a constraint
// (two value literals that allocate nothing). Any other Matcher sits
// behind the interface, out of the linter's sight.
//
//lint:hot budget=44
func (b *Broker) Lookup(req ontology.Request, want int) []Match {
	local := b.LookupLocal(req)
	if want > 0 && len(local) >= want {
		return local
	}
	merged := local
	for _, p := range b.Peers() {
		merged = append(merged, p.LookupLocal(req)...)
	}
	if len(merged) == len(local) {
		return local // no peer had anything to add: the local ranking stands
	}
	// Bring each name's copies together, best score first and on a tie
	// the earliest broker asked, keep one, and rank what is left.
	slices.SortStableFunc(merged, byNameThenRank)
	merged = slices.CompactFunc(merged, sameName)
	slices.SortFunc(merged, rank)
	if req.Max > 0 && len(merged) > req.Max {
		merged = merged[:req.Max]
	}
	return merged
}

func byNameThenRank(a, b Match) int {
	if c := strings.Compare(a.Profile.Name, b.Profile.Name); c != 0 {
		return c
	}
	return rank(a, b)
}

func sameName(a, b Match) bool { return a.Profile.Name == b.Profile.Name }
