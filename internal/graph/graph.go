// Package graph provides the graph substrate for the SSR/VRR reproduction:
// undirected graphs keyed by node identifier, the topology generators used by
// the paper's experiments (random regular, Erdős–Rényi, power-law, unit-disk,
// grid, line, ring, star), and the traversal/connectivity algorithms that the
// consistency checkers and the physical network simulator build on.
//
// Graphs here serve two distinct roles:
//
//   - The *physical* network graph E_p: communication links between nodes.
//   - The *virtual* network graph E_v: source routes (SSR) or path state
//     (VRR), which the linearization algorithm transforms into the virtual
//     ring. §4 of the paper initializes E_v := E_p.
package graph

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ids"
)

// Graph is an undirected simple graph over node identifiers. Self-loops are
// rejected; parallel edges collapse. The zero value is not usable; call New.
type Graph struct {
	adj map[ids.ID]ids.Set
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[ids.ID]ids.Set)}
}

// NewWithNodes returns a graph containing the given nodes and no edges.
func NewWithNodes(nodes ...ids.ID) *Graph {
	g := New()
	for _, n := range nodes {
		g.AddNode(n)
	}
	return g
}

// AddNode inserts an isolated node if not present.
func (g *Graph) AddNode(v ids.ID) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = ids.NewSet()
	}
}

// RemoveNode deletes v and all incident edges. It is a no-op if v is absent.
func (g *Graph) RemoveNode(v ids.ID) {
	nbrs, ok := g.adj[v]
	if !ok {
		return
	}
	for u := range nbrs {
		g.adj[u].Remove(v)
	}
	delete(g.adj, v)
}

// HasNode reports whether v is in the graph.
func (g *Graph) HasNode(v ids.ID) bool {
	_, ok := g.adj[v]
	return ok
}

// AddEdge inserts the undirected edge {u,v}, adding the endpoints if needed.
// It reports whether the edge was newly added. Self-loops are ignored.
func (g *Graph) AddEdge(u, v ids.ID) bool {
	if u == v {
		return false
	}
	g.AddNode(u)
	g.AddNode(v)
	added := g.adj[u].Add(v)
	g.adj[v].Add(u)
	return added
}

// RemoveEdge deletes the undirected edge {u,v} and reports whether it was
// present.
func (g *Graph) RemoveEdge(u, v ids.ID) bool {
	if _, ok := g.adj[u]; !ok {
		return false
	}
	removed := g.adj[u].Remove(v)
	if nbrs, ok := g.adj[v]; ok {
		nbrs.Remove(u)
	}
	return removed
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v ids.ID) bool {
	nbrs, ok := g.adj[u]
	return ok && nbrs.Has(v)
}

// Neighbors returns the neighbor set of v. The returned set is the graph's
// internal state; callers must not mutate it. It is nil if v is absent.
func (g *Graph) Neighbors(v ids.ID) ids.Set { return g.adj[v] }

// NeighborsSorted returns the neighbors of v in ascending identifier order.
func (g *Graph) NeighborsSorted(v ids.ID) []ids.ID {
	return g.adj[v].Sorted()
}

// NeighborsSortedInto appends the neighbors of v in ascending identifier
// order to dst (reusing its capacity) and returns the extended slice — the
// allocation-free variant of NeighborsSorted for per-round hot paths.
func (g *Graph) NeighborsSortedInto(v ids.ID, dst []ids.ID) []ids.ID {
	base := len(dst)
	for u := range g.adj[v] {
		dst = append(dst, u)
	}
	out := dst[base:]
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return dst
}

// Degree returns the degree of v, or 0 if absent.
func (g *Graph) Degree(v ids.ID) int { return g.adj[v].Len() }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += nbrs.Len()
	}
	return total / 2
}

// Nodes returns all node identifiers in ascending order.
func (g *Graph) Nodes() []ids.ID {
	out := make([]ids.ID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	ids.SortAsc(out)
	return out
}

// Edge is an undirected edge with U < V canonically.
type Edge struct {
	U, V ids.ID
}

// NewEdge returns the canonical form of the edge {u,v}.
func NewEdge(u, v ids.ID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String renders the edge as "{u,v}".
func (e Edge) String() string { return fmt.Sprintf("{%s,%s}", e.U, e.V) }

// Edges returns all edges in canonical, deterministic order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v, nbrs := range g.adj {
		for u := range nbrs {
			if v < u {
				out = append(out, Edge{U: v, V: u})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[ids.ID]ids.Set, len(g.adj))}
	for v, nbrs := range g.adj {
		c.adj[v] = nbrs.Clone()
	}
	return c
}

// FromRows builds the graph whose node i is nodes[i] and is adjacent to
// nodes[j] for every j in rows[i]. rows must describe a symmetric relation
// without self-loops. Each neighbor set is sized to its row up front.
func FromRows(nodes []ids.ID, rows [][]int32) *Graph {
	g := &Graph{adj: make(map[ids.ID]ids.Set, len(nodes))}
	for i, v := range nodes {
		s := make(ids.Set, len(rows[i]))
		for _, j := range rows[i] {
			s[nodes[j]] = struct{}{}
		}
		g.adj[v] = s
	}
	return g
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.adj) != len(h.adj) {
		return false
	}
	for v, nbrs := range g.adj {
		hn, ok := h.adj[v]
		if !ok || hn.Len() != nbrs.Len() {
			return false
		}
		for u := range nbrs {
			if !hn.Has(u) {
				return false
			}
		}
	}
	return true
}

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if nbrs.Len() > max {
			max = nbrs.Len()
		}
	}
	return max
}

// AvgDegree returns the average node degree (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.adj))
}

// BFSFrom runs a breadth-first search from src and returns the hop distance
// to every reachable node (src included at distance 0).
func (g *Graph) BFSFrom(src ids.ID) map[ids.ID]int {
	dist := make(map[ids.ID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []ids.ID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for u := range g.adj[v] {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ShortestPath returns a minimum-hop path from src to dst (inclusive of both
// endpoints), or nil if dst is unreachable. Ties are broken by ascending
// identifier to keep results deterministic.
func (g *Graph) ShortestPath(src, dst ids.ID) []ids.ID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []ids.ID{src}
	}
	parent := map[ids.ID]ids.ID{src: src}
	queue := []ids.ID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v].Sorted() {
			if _, seen := parent[u]; seen {
				continue
			}
			parent[u] = v
			if u == dst {
				path := []ids.ID{dst}
				for p := dst; p != src; {
					p = parent[p]
					path = append(path, p)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, u)
		}
	}
	return nil
}

// Connected reports whether the graph is connected. The empty graph counts
// as connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	var src ids.ID
	for v := range g.adj {
		src = v
		break
	}
	return len(g.BFSFrom(src)) == len(g.adj)
}

// Components returns the connected components, each sorted ascending, in
// deterministic order (by smallest member).
func (g *Graph) Components() [][]ids.ID {
	seen := ids.NewSet()
	var comps [][]ids.ID
	for _, v := range g.Nodes() {
		if seen.Has(v) {
			continue
		}
		var comp []ids.ID
		for u := range g.BFSFrom(v) {
			comp = append(comp, u)
			seen.Add(u)
		}
		ids.SortAsc(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Diameter returns the maximum eccentricity over all nodes. It returns -1
// for a disconnected or empty graph. This is O(V·E) and intended for the
// modest topologies used in experiments.
func (g *Graph) Diameter() int {
	if len(g.adj) == 0 {
		return -1
	}
	diam := 0
	for v := range g.adj {
		dist := g.BFSFrom(v)
		if len(dist) != len(g.adj) {
			return -1
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// IsLinearized reports whether the graph is exactly the sorted line over its
// node set: node i is adjacent to node i-1 and i+1 (in identifier order) and
// to nothing else. This is the fixed point of linearization before ring
// closure. Graphs with fewer than two nodes are trivially linearized when
// they have no edges.
func (g *Graph) IsLinearized() bool {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return g.NumEdges() == 0
	}
	if g.NumEdges() != len(nodes)-1 {
		return false
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// IsSortedRing reports whether the graph is exactly the virtual ring over
// its node set: the sorted line plus the closing edge between the smallest
// and largest identifier. Rings need at least three nodes; two nodes with
// one edge also count (line == ring then), matching SSR's degenerate cases.
func (g *Graph) IsSortedRing() bool {
	nodes := g.Nodes()
	switch len(nodes) {
	case 0, 1:
		return g.NumEdges() == 0
	case 2:
		return g.NumEdges() == 1 && g.HasEdge(nodes[0], nodes[1])
	}
	if g.NumEdges() != len(nodes) {
		return false
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return g.HasEdge(nodes[0], nodes[len(nodes)-1])
}

// SupersetOfLine reports whether the graph contains every consecutive edge
// of the sorted line over its node set (it may contain more edges). This is
// the fixed point of linearization *with memory*, which never removes edges.
func (g *Graph) SupersetOfLine() bool {
	nodes := g.Nodes()
	for i := 0; i+1 < len(nodes); i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// RandomSpanningConnected adds random edges to g (over its current node set)
// until it is connected, using r for randomness. It is used by generators
// that can produce disconnected graphs, so experiments always start from the
// paper's standing assumption of a connected physical network.
func (g *Graph) RandomSpanningConnected(r *rand.Rand) {
	comps := g.Components()
	for len(comps) > 1 {
		a := comps[0][r.Intn(len(comps[0]))]
		c2 := comps[1+r.Intn(len(comps)-1)]
		b := c2[r.Intn(len(c2))]
		g.AddEdge(a, b)
		comps = g.Components()
	}
}
