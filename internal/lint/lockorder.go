package lint

// LockOrder detects lock-acquisition-order inversions across the whole
// repository — the deadlock *class* the per-function rules cannot see.
// Two goroutines deadlock when one acquires lock A then B while another
// acquires B then A; neither function is wrong alone, so the analysis
// has to be global.
//
// The engine replays each function's events in source order, tracking
// the held set exactly like blockheld (a deferred Unlock holds to
// function exit). Whenever lock B is acquired — directly, or anywhere
// inside a callee, known from the callee's transitive Acquires summary —
// while lock A is held, the analyzer records the ordering edge A→B with
// a witness path. Edges between the same class (recursive locking) are
// skipped: that is a different bug with a different fix.
//
// Cycles in the resulting order graph are reported once per
// participating edge, anchored at the acquisition that completes the
// inversion, with both acquisition paths spelled out so the reader can
// see the two interleavings that deadlock.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:       "lockorder",
		Doc:        "lock-acquisition-order inversion (A→B in one path, B→A in another) across the repo",
		RunProgram: runLockOrder,
	}
}

// lockEdge is one observed ordering: held was locked when acquired was
// taken, in fn, at pos (with via describing the path when the
// acquisition happens inside a callee).
type lockEdge struct {
	held, acquired string
	fn             *FuncNode
	pos            int // index into fn.Events, for position lookup
	via            string
}

func runLockOrder(pass *ProgramPass) {
	edges := map[[2]string]*lockEdge{} // first witness per (held, acquired)
	var order [][2]string              // deterministic iteration order
	note := func(e *lockEdge) {
		key := [2]string{e.held, e.acquired}
		if e.held == e.acquired {
			return
		}
		if _, ok := edges[key]; !ok {
			edges[key] = e
			order = append(order, key)
		}
	}
	for _, fn := range pass.Graph.Funcs {
		held := map[string]bool{}
		for i, ev := range fn.Events {
			switch ev.Kind {
			case EventLock:
				for h := range held {
					note(&lockEdge{held: h, acquired: ev.Detail, fn: fn, pos: i,
						via: fn.Name + " (" + shortPos(fn.Pkg.Fset, ev.Pos) + ")"})
				}
				held[ev.Detail] = true
			case EventUnlock:
				if !ev.Deferred {
					delete(held, ev.Detail)
				}
			case EventCall:
				if ev.Callee == nil || len(held) == 0 {
					continue
				}
				for class, via := range ev.Callee.Acquires {
					for h := range held {
						note(&lockEdge{held: h, acquired: class, fn: fn, pos: i,
							via: fn.Name + " (" + shortPos(fn.Pkg.Fset, ev.Pos) + ") → " + via})
					}
				}
			}
		}
	}
	// Find inversions: any edge both of whose endpoints sit in one
	// strongly connected component of the order graph participates in a
	// cycle. Tarjan over the class nodes.
	scc := stronglyConnected(order)
	for _, key := range order {
		if scc[key[0]] != scc[key[1]] {
			continue
		}
		e := edges[key]
		rev := findReversePath(edges, order, key[1], key[0])
		msg := "lock order inversion: " + LockClassString(e.held) + " → " +
			LockClassString(e.acquired) + " here, but " + rev + " elsewhere — the two interleavings deadlock"
		pass.Report(e.fn.Pkg.Fset.Position(e.fn.Events[e.pos].Pos), msg,
			"pick one global order for these locks and acquire them in it on every path (or merge the critical sections)")
	}
}

// stronglyConnected computes SCC ids for the class nodes of the edge
// set (iterative Tarjan, deterministic over the given edge order).
func stronglyConnected(order [][2]string) map[string]int {
	adj := map[string][]string{}
	var nodes []string
	seen := map[string]bool{}
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for _, e := range order {
		addNode(e[0])
		addNode(e[1])
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, nComp := 0, 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, n := range nodes {
		if _, ok := index[n]; !ok {
			strong(n)
		}
	}
	return comp
}

// findReversePath describes the shortest edge path from 'from' back to
// 'to' in the order graph — the other half of the inversion. BFS over
// the recorded edges; falls back to a generic phrase if the search
// fails (it cannot, inside one SCC, but be defensive).
func findReversePath(edges map[[2]string]*lockEdge, order [][2]string, from, to string) string {
	type hop struct {
		node string
		prev *hop
		edge *lockEdge
	}
	queue := []*hop{{node: from}}
	visited := map[string]bool{from: true}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node == to {
			// Rebuild the chain description.
			var parts []string
			for cur := h; cur.prev != nil; cur = cur.prev {
				parts = append(parts, LockClassString(cur.node)+" (via "+cur.edge.via+")")
			}
			desc := LockClassString(from)
			for i := len(parts) - 1; i >= 0; i-- {
				desc += " → " + parts[i]
			}
			return desc
		}
		for _, key := range order {
			if key[0] != h.node || visited[key[1]] {
				continue
			}
			visited[key[1]] = true
			queue = append(queue, &hop{node: key[1], prev: h, edge: edges[key]})
		}
	}
	return LockClassString(from) + " → … → " + LockClassString(to)
}
