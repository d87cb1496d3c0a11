// Package discovery implements service discovery for the pervasive grid.
//
// The paper's position is that Jini/SLP/UPnP/Bluetooth-SDP-era systems
// "describe services entirely in syntactic terms", "return exact matches
// and can only handle equality constraints". This package provides the
// semantic alternative — ontology-based fuzzy matching that returns a
// ranked list under non-equality constraints — together with faithful
// syntactic baselines for comparison, a lease-based registry for services
// that come and go, and distributed broker agents.
package discovery

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"pervasivegrid/internal/ontology"
)

// Match is one scored discovery result.
type Match struct {
	Profile *ontology.Profile
	// Score is in [0, 1]; higher is better.
	Score float64
}

// Matcher ranks candidate profiles against a request.
type Matcher interface {
	// Name identifies the matcher in experiment tables.
	Name() string
	// Match returns candidates ordered by descending score.
	Match(req ontology.Request, candidates []*ontology.Profile) []Match
}

// SemanticMatcher scores candidates with ontology similarity and filters
// them with the request's hard constraints. Matching is fuzzy: a
// TemperatureSensor request still surfaces a generic SensorService, just
// with a lower score.
type SemanticMatcher struct {
	Onto *ontology.Ontology
	// MinScore drops candidates scoring below it (default 0.35).
	MinScore float64
	// ConceptWeight, IOWeight, PrefWeight blend the score components;
	// they default to 0.6/0.2/0.2 and are normalised internally.
	ConceptWeight, IOWeight, PrefWeight float64
}

// NewSemanticMatcher builds a matcher with default weights over the given
// ontology.
func NewSemanticMatcher(o *ontology.Ontology) *SemanticMatcher {
	return &SemanticMatcher{Onto: o, MinScore: 0.35, ConceptWeight: 0.6, IOWeight: 0.2, PrefWeight: 0.2}
}

// Name implements Matcher.
func (m *SemanticMatcher) Name() string { return "semantic" }

// conceptScore blends subsumption and Wu–Palmer similarity: an exact or
// subsumed concept scores highest, a sibling lower, a stranger near zero.
func (m *SemanticMatcher) conceptScore(want, have string) float64 {
	if want == have {
		return 1
	}
	if m.Onto.IsA(have, want) {
		return 0.95 // candidate is a specialisation of the request
	}
	sim := m.Onto.Similarity(want, have)
	if m.Onto.IsA(want, have) {
		// Candidate is more general than requested: usable but weaker.
		if sim < 0.75 {
			return sim
		}
		return 0.75
	}
	return sim * 0.9
}

// ioScore measures how well the candidate's outputs cover the request's
// wanted outputs and how well the client's available inputs cover the
// candidate's required inputs. Empty requirements score 1.
func (m *SemanticMatcher) ioScore(req ontology.Request, p *ontology.Profile) float64 {
	cover := func(wanted, offered []string) float64 {
		if len(wanted) == 0 {
			return 1
		}
		total := 0.0
		for _, w := range wanted {
			best := 0.0
			for _, o := range offered {
				s := m.conceptScore(w, o)
				if s > best {
					best = s
				}
			}
			total += best
		}
		return total / float64(len(wanted))
	}
	outs := cover(req.Outputs, p.Outputs)
	ins := cover(p.Inputs, req.Inputs)
	return (outs + ins) / 2
}

// pref is one PreferLow property: the field it is read through and its
// span over the candidate pool.
type pref struct {
	field
	lo, hi float64
}

// finite reads a property, as field.get returns it, as a preference value:
// a finite number. A NaN or an infinity is no value, as a missing or
// non-numeric property is: it neither stretches the range nor is scored.
func finite(v ontology.Value, ok bool) (float64, bool) {
	return v.N, ok && v.Kind == ontology.KindNumber && !math.IsNaN(v.N) && !math.IsInf(v.N, 0)
}

// prefRanges measures each PreferLow property's finite values over the
// whole pool — every constraint survivor of every concept — so that
// prefScore is scale-free.
func prefRanges(keys []string, pool survivors, view *snapshot) []pref {
	if len(keys) == 0 {
		return nil
	}
	prefs := make([]pref, len(keys))
	for i, key := range keys {
		r := &prefs[i]
		r.field = view.field(key)
		first := true
		for j := range pool.len() {
			k := pool.index(j)
			v, ok := finite(r.get(pool.candidates[k], pool.slotOf(k)))
			if !ok {
				continue
			}
			if first || v < r.lo {
				r.lo = v
			}
			if first || v > r.hi {
				r.hi = v
			}
			first = false
		}
	}
	return prefs
}

// prefScore rewards candidates with smaller values on PreferLow properties,
// scaled against the candidate pool's observed ranges: p, whose slot is s,
// is read through each PreferLow key's pref. It never exceeds 1.
func prefScore(prefs []pref, p *ontology.Profile, s int32) float64 {
	if len(prefs) == 0 {
		return 1
	}
	total, n := 0.0, 0
	for i := range prefs {
		v, ok := finite(prefs[i].get(p, s))
		if !ok {
			continue
		}
		l, h := prefs[i].lo, prefs[i].hi
		n++
		if h <= l {
			total += 1
			continue
		}
		d, w := v-l, h-l
		if math.IsInf(w, 0) {
			// The span overflows a float64. Halving both sides keeps
			// the ratio (exactly, for normal floats) and the span finite.
			d, w = v/2-l/2, h/2-l/2
		}
		total += 1 - d/w
	}
	if n == 0 {
		return 0.5 // no preference data available
	}
	return total / float64(n)
}

// signature is what the concept and IO parts of a score depend on: the
// candidate's Concept, Inputs and Outputs. A registry of thousands of
// services holds about a dozen distinct ones. A registry snapshot numbers
// them (Registry.intern), so a lookup finds a candidate's by number; Match
// over a plain slice keeps the ones it has met in a slice and scans it.
type signature struct {
	of *ontology.Profile // the first candidate seen with it
	// base is cw·concept + iw·io; a candidate's score is base + pw·pref.
	base float64
}

func (s *signature) covers(p *ontology.Profile) bool {
	return s.of.Concept == p.Concept &&
		slices.Equal(s.of.Inputs, p.Inputs) && slices.Equal(s.of.Outputs, p.Outputs)
}

// base is the part of p's score that its signature fixes: cw·concept +
// iw·io.
func (m *SemanticMatcher) base(req ontology.Request, p *ontology.Profile, cw, iw float64) float64 {
	return cw*m.conceptScore(req.Concept, p.Concept) + iw*m.ioScore(req, p)
}

// rank is the result order: score descending, then name ascending. Names
// are unique in a registry, which makes the order total.
func rank(a, b Match) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Profile.Name, b.Profile.Name)
}

// survivors is the pool a match scores, the candidates that meet every
// constraint: the ones keep indexes, or all of them when keep is nil. With
// a view, slot holds the candidates' slots in its columns.
type survivors struct {
	candidates []*ontology.Profile
	slot       []int32
	keep       []int32
}

// slotOf returns the slot of candidates[i], 0 without a view.
func (p survivors) slotOf(i int) int32 {
	if p.slot == nil {
		return 0
	}
	return p.slot[i]
}

func (p survivors) len() int {
	if p.keep == nil {
		return len(p.candidates)
	}
	return len(p.keep)
}

// index returns the position in candidates of the pool's j-th member.
func (p survivors) index(j int) int {
	if p.keep == nil {
		return j
	}
	return int(p.keep[j])
}

// Match implements Matcher. It returns the req.Max best candidates (all of
// them when Max is 0) that meet every constraint and score at least
// MinScore, best first.
func (m *SemanticMatcher) Match(req ontology.Request, candidates []*ontology.Profile) []Match {
	return m.match(req, candidates, nil)
}

// match is Match over candidates, which are view's profiles when view is not
// nil: a candidate's signature is then read from view.sig, not found by
// scanning the ones met so far, and its properties from the view's columns,
// not its map; and a request with no preference walks the view's posting
// lists instead of scanning the candidates. Those are the only differences.
func (m *SemanticMatcher) match(req ontology.Request, candidates []*ontology.Profile, view *snapshot) []Match {
	cw, iw, pw := m.ConceptWeight, m.IOWeight, m.PrefWeight
	if cw <= 0 && iw <= 0 && pw <= 0 {
		cw, iw, pw = 0.6, 0.2, 0.2
	}
	sum := cw + iw + pw
	cw, iw, pw = cw/sum, iw/sum, pw/sum
	minScore := m.MinScore
	if minScore <= 0 {
		minScore = 0.35
	}
	if view != nil && len(req.PreferLow) == 0 {
		return m.walk(req, view, cw, iw, pw, minScore)
	}

	// Pass 1: constraint filter, then the preference ranges over the
	// surviving pool. This pass is linear in the candidates on purpose: an
	// index by concept could narrow what is scored below, but narrowing
	// what feeds the ranges would change the scores.
	pool := survivors{candidates: candidates}
	if view != nil {
		pool.slot = view.slot
	}
	if len(req.Constraints) > 0 {
		keep := make([]int32, 0, len(candidates))
		for _, c := range req.Constraints {
			b := view.constraint(c)
			pool.keep = b.filter(pool, keep, &req) // each filters what the last kept
		}
	}
	prefs := prefRanges(req.PreferLow, pool, view)

	// Pass 2: score. The ontology is consulted once per signature; only
	// the preference part is per candidate. With a bound, the best Max are
	// kept in order by insertion instead of ranking everyone.
	keep, bounded := pool.len(), false
	if req.Max > 0 && req.Max < keep {
		keep, bounded = req.Max, true
	}
	out := make([]Match, 0, keep)
	var met []signature // by number with a view, else in the order met
	if view != nil && keep > 0 {
		met = make([]signature, view.sigs)
	}
	for j := range pool.len() {
		i := pool.index(j)
		p := candidates[i]
		var sig *signature
		if view != nil {
			sig = &met[view.sig[i]]
		} else {
			k := 0
			for k < len(met) && !met[k].covers(p) {
				k++
			}
			if k == len(met) {
				met = append(met, signature{})
			}
			sig = &met[k]
		}
		if sig.of == nil { // met for the first time
			*sig = signature{of: p, base: m.base(req, p, cw, iw)}
		}
		bar := minScore
		if len(out) == keep {
			bar = out[keep-1].Score // full: the worst one kept is the one to beat
		}
		if sig.base+max(pw, 0) < bar {
			continue // out of reach even with a perfect preference score
		}
		match := Match{Profile: p, Score: sig.base + pw*prefScore(prefs, p, pool.slotOf(i))}
		if !(match.Score >= minScore) { // too low, or NaN from a range wider than a float64
			continue
		}
		if len(out) == keep {
			if rank(match, out[keep-1]) >= 0 {
				continue
			}
			out = out[:keep-1] // the worst one kept makes room
		}
		out = append(out, match)
		if bounded {
			for i := len(out) - 1; i > 0 && rank(out[i], out[i-1]) < 0; i-- {
				out[i], out[i-1] = out[i-1], out[i]
			}
		}
	}
	if !bounded {
		slices.SortFunc(out, rank)
	}
	return out
}

// run is one signature's part of a preference-free answer: the score each
// of its candidates has, and the unread part of its posting list,
// bySig[at:end].
type run struct {
	score   float64
	at, end int32
}

// walk is match over a view for a request with no PreferLow. Every
// candidate of a signature then scores the same, base + pw (prefScore is
// 1), so the answer is the best signatures' candidates in name order: walk
// scores each signature that has profiles once, drops those below minScore,
// ranks the rest, and reads their posting lists best first, testing the
// constraints per candidate, until it has kept Max. Signatures that score
// exactly alike are one group, whose lists merge by position, which is name
// order; that is rank's order, so the answer is the one a scan gives.
func (m *SemanticMatcher) walk(req ontology.Request, view *snapshot, cw, iw, pw, minScore float64) []Match {
	var runBuf [32]run
	runs, keep := runBuf[:0], 0
	for g := range view.sigs {
		at, end := view.from[g], view.from[g+1]
		if at == end {
			continue // every profile with it has gone
		}
		score := m.base(req, view.profiles[view.bySig[at]], cw, iw) + pw
		if !(score >= minScore) {
			continue
		}
		runs = append(runs, run{score, at, end})
		keep += int(end - at)
	}
	slices.SortFunc(runs, bestFirst)
	var consBuf [4]constraint
	cons := consBuf[:0]
	for _, c := range req.Constraints {
		cons = append(cons, view.constraint(c))
	}

	if req.Max > 0 && req.Max < keep {
		keep = req.Max
	}
	out := make([]Match, 0, keep)
	for len(runs) > 0 && len(out) < keep {
		score, n := runs[0].score, 1
		for n < len(runs) && runs[n].score == score {
			n++
		}
		group := runs[:n] // a heap on where each unread list starts
		runs = runs[n:]
		for k := n/2 - 1; k >= 0; k-- {
			view.down(group, k)
		}
	next:
		for len(group) > 0 && len(out) < keep {
			i := view.bySig[group[0].at]
			if group[0].at++; group[0].at == group[0].end {
				group[0] = group[len(group)-1]
				group = group[:len(group)-1]
			}
			view.down(group, 0)
			p, s := view.profiles[i], view.slot[i]
			for k := range cons {
				if !cons[k].holds(p, s, &req) {
					continue next
				}
			}
			out = append(out, Match{Profile: p, Score: score})
		}
	}
	return out
}

func bestFirst(a, b run) int { return cmp.Compare(b.score, a.score) }

// down sifts runs[k] down the heap of runs, ordered by the position that
// each one's unread list starts at. Posting lists are disjoint, so no two
// runs start at the same position.
func (v *snapshot) down(runs []run, k int) {
	for {
		c := 2*k + 1
		if c >= len(runs) {
			return
		}
		if c+1 < len(runs) && v.bySig[runs[c+1].at] < v.bySig[runs[c].at] {
			c++
		}
		if v.bySig[runs[k].at] < v.bySig[runs[c].at] {
			return
		}
		runs[k], runs[c] = runs[c], runs[k]
		k = c
	}
}

// JiniMatcher reproduces interface-based exact matching: a candidate
// matches only when its Interface string equals the request's wanted
// interface (carried in the request concept field by convention of this
// baseline). No ranking, no constraints beyond equality.
type JiniMatcher struct{}

// Name implements Matcher.
func (JiniMatcher) Name() string { return "jini" }

// Match implements Matcher. Score is always 1 for a hit.
func (JiniMatcher) Match(req ontology.Request, candidates []*ontology.Profile) []Match {
	var out []Match
	for _, p := range candidates {
		if p.Interface != "" && p.Interface == req.Concept {
			out = append(out, Match{Profile: p, Score: 1})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Profile.Name < out[j].Profile.Name })
	return out
}

// SDPMatcher reproduces Bluetooth SDP: services match only by exact UUID.
// The paper: "Bluetooth SDP relies on unique 128 bit UUIDs to describe and
// match services. This is clearly inadequate."
type SDPMatcher struct{}

// Name implements Matcher.
func (SDPMatcher) Name() string { return "sdp" }

// Match implements Matcher; the request concept carries the wanted UUID.
func (SDPMatcher) Match(req ontology.Request, candidates []*ontology.Profile) []Match {
	var out []Match
	for _, p := range candidates {
		if p.UUID != "" && p.UUID == req.Concept {
			out = append(out, Match{Profile: p, Score: 1})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Profile.Name < out[j].Profile.Name })
	return out
}
