package linearize

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/ids"
)

// adjacency is the engine's mutable virtual graph in dense form. Node i is
// nodes[i]; nodes is ascending, so index order is identifier order and
// every comparison the algorithms make on identifiers can be made on
// indices. rows[i] holds the indices of i's neighbors, ascending, without
// duplicates or i itself; the relation is kept symmetric.
//
// Writes to different rows never share memory, which is what lets the
// sharded executor's interior steps run concurrently: an interior step only
// writes the rows of nodes inside its own shard.
type adjacency struct {
	nodes []ids.ID
	rows  [][]int32
}

// newAdjacency converts g into dense form.
func newAdjacency(g *graph.Graph) adjacency {
	a := adjacency{nodes: g.Nodes()}
	a.rows = make([][]int32, len(a.nodes))
	for i, v := range a.nodes {
		nbrs := g.Neighbors(v)
		row := make([]int32, 0, len(nbrs))
		for u := range nbrs {
			row = append(row, a.index(u))
		}
		slices.Sort(row)
		a.rows[i] = row
	}
	return a
}

// index returns the dense index of v, which must be a node.
func (a *adjacency) index(v ids.ID) int32 {
	i, _ := slices.BinarySearch(a.nodes, v)
	return int32(i)
}

// graph builds the identifier-keyed graph of the current state.
func (a *adjacency) graph() *graph.Graph { return graph.FromRows(a.nodes, a.rows) }

func (a *adjacency) degree(i int32) int { return len(a.rows[i]) }

// has reports whether {i,j} is an edge, searching the shorter row.
func (a *adjacency) has(i, j int32) bool {
	if len(a.rows[j]) < len(a.rows[i]) {
		i, j = j, i
	}
	_, ok := slices.BinarySearch(a.rows[i], j)
	return ok
}

// add inserts {i,j} and reports whether it was new. Self-loops are ignored.
func (a *adjacency) add(i, j int32) bool {
	if i == j || !a.insert(i, j) {
		return false
	}
	a.insert(j, i)
	return true
}

// remove deletes {i,j} and reports whether it was present.
func (a *adjacency) remove(i, j int32) bool {
	if !a.delete(i, j) {
		return false
	}
	a.delete(j, i)
	return true
}

func (a *adjacency) insert(i, j int32) bool {
	k, found := slices.BinarySearch(a.rows[i], j)
	if found {
		return false
	}
	a.rows[i] = slices.Insert(a.rows[i], k, j)
	return true
}

func (a *adjacency) delete(i, j int32) bool {
	k, found := slices.BinarySearch(a.rows[i], j)
	if !found {
		return false
	}
	a.rows[i] = slices.Delete(a.rows[i], k, k+1)
	return true
}

func (a *adjacency) numEdges() int {
	total := 0
	for _, r := range a.rows {
		total += len(r)
	}
	return total / 2
}

func (a *adjacency) maxDegree() int {
	m := 0
	for _, r := range a.rows {
		m = max(m, len(r))
	}
	return m
}

// supersetOfLine reports whether every consecutive pair of nodes is
// adjacent.
func (a *adjacency) supersetOfLine() bool {
	for i := 0; i+1 < len(a.nodes); i++ {
		if !a.has(int32(i), int32(i+1)) {
			return false
		}
	}
	return true
}

// isLinearized reports whether the graph is exactly the sorted line.
func (a *adjacency) isLinearized() bool {
	n := len(a.nodes)
	if n < 2 {
		return a.numEdges() == 0
	}
	return a.numEdges() == n-1 && a.supersetOfLine()
}

// isSortedRing reports whether the graph is exactly the sorted line plus
// the edge between the extremal nodes (for two nodes: the single edge).
func (a *adjacency) isSortedRing() bool {
	n := len(a.nodes)
	switch n {
	case 0, 1:
		return a.numEdges() == 0
	case 2:
		return a.numEdges() == 1 && a.has(0, 1)
	}
	return a.numEdges() == n && a.supersetOfLine() && a.has(0, int32(n-1))
}
