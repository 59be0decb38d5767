// Package cache implements SSR's route cache and the bounded-memory
// shortcut-neighbor structure of "linearization with shortcut neighbors"
// (LSN, Onus et al., quoted in §2 of the paper):
//
//	"Every node divides its local view of the identifier space into
//	 exponentially growing intervals. For every interval at most one edge
//	 is remembered."
//
// The cache stores source routes keyed by their destination. In Bounded
// mode it keeps at most one route per exponential distance interval per
// direction (left/right on the identifier line) — O(log |space|) entries.
// In Unbounded mode it keeps every route, which is exactly "linearization
// with memory". §4 notes SSR gets the shortcut set for free: "a node
// typically caches at least one node for each of the exponentially growing
// intervals".
//
// Lookups implement SSR's greedy rule (§1): among all cached nodes —
// including the intermediate nodes of every cached route — pick the one
// virtually closest to the packet's final destination, tie-broken by
// physical proximity (fewest source-route hops).
package cache

import (
	"repro/internal/ids"
	"repro/internal/sroute"
)

// Mode selects the retention policy.
type Mode int

const (
	// Bounded keeps at most one route per exponential interval per
	// direction (the LSN policy).
	Bounded Mode = iota
	// Unbounded keeps every inserted route (linearization with memory).
	Unbounded
)

// String names the mode.
func (m Mode) String() string {
	if m == Bounded {
		return "bounded"
	}
	return "unbounded"
}

// Cache is one node's route cache. Not safe for concurrent use; in the
// simulator each node's state is touched only from the event loop.
type Cache struct {
	owner  ids.ID
	mode   Mode
	routes map[ids.ID]sroute.Route // by destination
	// slot[dir][k] is the destination currently occupying interval k in
	// direction dir (0=left, 1=right); 0 with absent map entry means empty.
	slot [2][ids.NumIntervals]ids.ID
	has  [2][ids.NumIntervals]bool
}

// New returns an empty cache for the given node.
func New(owner ids.ID, mode Mode) *Cache {
	return &Cache{owner: owner, mode: mode, routes: make(map[ids.ID]sroute.Route)}
}

// Owner returns the node this cache belongs to.
func (c *Cache) Owner() ids.ID { return c.owner }

// Mode returns the retention policy.
func (c *Cache) Mode() Mode { return c.mode }

// Len returns the number of cached routes.
func (c *Cache) Len() int { return len(c.routes) }

// TotalRouteNodes returns the summed length of all cached routes — the
// router-state metric for experiment E8.
func (c *Cache) TotalRouteNodes() int {
	total := 0
	for _, r := range c.routes {
		total += len(r)
	}
	return total
}

func dirIndex(d ids.Dir) int {
	if d == ids.Left {
		return 0
	}
	return 1
}

// Insert offers a route to the cache. The route must start at the owner.
// In Bounded mode the route is kept only if its interval slot is empty or
// it beats the incumbent (closer destination identifier wins — tightening
// toward the eventual ring neighbors — then fewer hops). Insert reports
// whether the cache retained the route. A shorter route to an
// already-cached destination always replaces the longer one.
func (c *Cache) Insert(r sroute.Route) bool {
	if len(r) < 2 || r.Src() != c.owner || r.Dst() == c.owner {
		return false
	}
	dst := r.Dst()
	if old, ok := c.routes[dst]; ok {
		if r.Hops() < old.Hops() {
			c.routes[dst] = r.Clone()
			return true
		}
		return false
	}
	if c.mode == Unbounded {
		c.routes[dst] = r.Clone()
		return true
	}
	d := dirIndex(ids.DirOf(c.owner, dst))
	k := ids.IntervalIndex(ids.LineDist(c.owner, dst))
	if k < 0 {
		return false
	}
	if c.has[d][k] {
		inc := c.slot[d][k]
		incRoute := c.routes[inc]
		if !c.beats(dst, r, inc, incRoute) {
			return false
		}
		delete(c.routes, inc)
	}
	c.slot[d][k] = dst
	c.has[d][k] = true
	c.routes[dst] = r.Clone()
	return true
}

// beats decides whether the challenger (dst,r) replaces the incumbent in a
// contested interval slot: closer identifier first, then fewer hops.
func (c *Cache) beats(dst ids.ID, r sroute.Route, inc ids.ID, incRoute sroute.Route) bool {
	dNew, dOld := ids.LineDist(c.owner, dst), ids.LineDist(c.owner, inc)
	if dNew != dOld {
		return dNew < dOld
	}
	return r.Hops() < incRoute.Hops()
}

// Remove deletes the route to dst and reports whether it was present.
func (c *Cache) Remove(dst ids.ID) bool {
	if _, ok := c.routes[dst]; !ok {
		return false
	}
	delete(c.routes, dst)
	if c.mode == Bounded {
		d := dirIndex(ids.DirOf(c.owner, dst))
		k := ids.IntervalIndex(ids.LineDist(c.owner, dst))
		if k >= 0 && c.has[d][k] && c.slot[d][k] == dst {
			c.has[d][k] = false
		}
	}
	return true
}

// Route returns the cached route to dst, or nil.
func (c *Cache) Route(dst ids.ID) sroute.Route { return c.routes[dst] }

// Destinations returns all cached destinations in ascending order.
func (c *Cache) Destinations() []ids.ID {
	out := make([]ids.ID, 0, len(c.routes))
	for dst := range c.routes {
		out = append(out, dst)
	}
	ids.SortAsc(out)
	return out
}

// NeighborsDir returns cached destinations on the given side of the owner,
// ascending. These are the left/right virtual neighbor sets N_L, N_R of §4.
func (c *Cache) NeighborsDir(d ids.Dir) []ids.ID {
	var out []ids.ID
	for dst := range c.routes {
		if ids.DirOf(c.owner, dst) == d {
			out = append(out, dst)
		}
	}
	ids.SortAsc(out)
	return out
}

// Nearest returns the cached destination closest to the owner on the given
// side, or ok=false if that side is empty. After linearization converges,
// Nearest(Left) and Nearest(Right) are the ring predecessor and successor.
func (c *Cache) Nearest(d ids.Dir) (ids.ID, bool) {
	var best ids.ID
	found := false
	for dst := range c.routes {
		if ids.DirOf(c.owner, dst) != d {
			continue
		}
		if !found || ids.LineDist(c.owner, dst) < ids.LineDist(c.owner, best) {
			best = dst
			found = true
		}
	}
	return best, found
}

// Candidate is a potential intermediate destination produced by a lookup:
// a node somewhere on a cached route, with the route prefix that reaches it.
type Candidate struct {
	Node ids.ID
	Via  sroute.Route // prefix of a cached route, from owner to Node
}

// BestToward implements SSR's greedy next-intermediate-destination rule for
// a packet addressed to target: scan every node on every cached route
// (intermediate nodes included) and return the candidate that minimizes the
// clockwise ring distance to target, tie-broken by fewest hops from the
// owner ("physically closest to itself and virtually closest to the final
// destination", §1), then by smaller route key (the cached route's
// destination). RingDist(·, target) is injective, so equal distance means
// the same candidate node; the order is total and the choice never depends
// on map iteration order. The owner itself is never returned; ok=false
// means the cache is empty. If target itself is on some cached route, the
// exact route is returned.
func (c *Cache) BestToward(target ids.ID) (Candidate, bool) {
	var best Candidate
	var bestKey ids.ID
	bestDist := ids.RingDist(c.owner, target) // must improve on owner
	bestHops := 0
	found := false
	for key, r := range c.routes {
		for i := 1; i < len(r); i++ {
			node := r[i]
			if node == c.owner {
				continue
			}
			dist := ids.RingDist(node, target)
			if !found && dist >= bestDist {
				// Not an improvement over just holding the packet; SSR's
				// ring consistency guarantees the successor always improves,
				// so skip non-improving candidates.
				continue
			}
			if found && (dist > bestDist || (dist == bestDist &&
				(i > bestHops || (i == bestHops && key >= bestKey)))) {
				continue
			}
			best = Candidate{Node: node, Via: r[:i+1].Clone()}
			bestDist, bestHops, bestKey = dist, i, key
			found = true
		}
	}
	return best, found
}

// Clone returns a deep copy of the cache (routes included).
func (c *Cache) Clone() *Cache {
	n := New(c.owner, c.mode)
	n.slot = c.slot
	n.has = c.has
	for dst, r := range c.routes {
		n.routes[dst] = r.Clone()
	}
	return n
}

// IntervalOccupancy returns, per direction, how many interval slots are
// filled (Bounded mode) or how many distinct intervals have at least one
// destination (Unbounded mode). Used by the E8 state-size experiment and by
// the §4 claim that SSR caches populate the LSN shortcut set.
func (c *Cache) IntervalOccupancy() (left, right int) {
	var seen [2][ids.NumIntervals]bool
	for dst := range c.routes {
		d := dirIndex(ids.DirOf(c.owner, dst))
		k := ids.IntervalIndex(ids.LineDist(c.owner, dst))
		if k >= 0 {
			seen[d][k] = true
		}
	}
	for k := 0; k < ids.NumIntervals; k++ {
		if seen[0][k] {
			left++
		}
		if seen[1][k] {
			right++
		}
	}
	return left, right
}
