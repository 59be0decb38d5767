// Package ssr implements Scalable Source Routing: the network-layer routing
// protocol whose virtual ring the paper bootstraps with linearization.
//
// Each node keeps a route cache (package cache) whose entries — source
// routes — are the virtual edges E_v of §4. The cache is initialized from
// the physical neighborhood (E_v := E_p) and evolves through the
// message-level linearization protocol of §4:
//
//   - Neighbor notification: a node v1 with more than one right (left)
//     neighbor picks the two farthest, v2 < v3, and notifies each of the
//     other, enclosing its own source routes; v2 composes
//     route(v2→v3) = reverse(route(v1→v2)) ++ route(v1→v3) and enters it
//     into its cache (the edge {v2,v3} enters E_v).
//   - Acknowledgment: each notified node acknowledges; when v1 holds both
//     acks it may tear down its edge to the farther neighbor (teardown
//     message, so the other endpoint drops its state too). With teardown
//     enabled the protocol behaves like pure linearization; without it (or
//     with a Bounded cache) like linearization with memory/LSN.
//   - Discovery: a node with an empty left neighbor set sends a clockwise
//     discovery message, greedily routed through the virtual structure,
//     until it reaches the node with an empty right neighbor set, which
//     acknowledges — establishing the wrap edge that turns the line into
//     SSR's virtual ring. The counter-clockwise mirror runs for redundancy.
//     Wrap partners are exempt from linearization: they are ring state, not
//     line neighbors.
//
// Data routing follows §1's greedy rule: the current node picks from its
// cache the intermediate destination virtually closest to the packet's
// final destination (tie: physically closest), appends the according source
// route, and forwards; the process repeats at every intermediate
// destination. Once the ring is globally consistent this succeeds for every
// source/destination pair — experiment E7 verifies exactly that.
//
// For the E6 comparison the same cluster driver can bootstrap with ISPRP
// (package isprp) instead; message counters are shared via phys.Counters.
package ssr

import (
	"repro/internal/cache"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// Message kinds for counter accounting.
const (
	KindNotify      = "ssr:notify"
	KindAck         = "ssr:ack"
	KindTeardown    = "ssr:teardown"
	KindDiscover    = "ssr:discover"
	KindDiscoverAck = "ssr:discoverack"
	KindData        = "ssr:data"
	KindKeepalive   = "ssr:keepalive"
	KindKeepAck     = "ssr:keepack"
)

// Config tunes an SSR node.
type Config struct {
	// TickInterval is the period of the linearization maintenance tick
	// (default 16). One pair per side is processed per tick.
	TickInterval sim.Time
	// CacheMode selects Bounded (LSN shortcut structure, the SSR default
	// per §4) or Unbounded (linearization with memory) caches.
	CacheMode cache.Mode
	// Teardown enables the §4 optional edge removal after both acks.
	Teardown bool
	// CloseRing enables the discovery messages that close the virtual ring.
	CloseRing bool
	// BothDirections sends the counter-clockwise discovery too (§4:
	// "It should do so for sake of redundancy."). Ablation E10.
	BothDirections bool
}

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 16
	}
	return c
}

// notifyPayload carries the route from the notifier to the *other* new
// neighbor; the receiver composes its own route by appending it to the
// reversed packet route.
type notifyPayload struct {
	OtherRoute sroute.Route
	Pair       pairKey
}

// ackPayload identifies the pending pair being acknowledged.
type ackPayload struct {
	Pair pairKey
}

// discoverPayload accumulates the virtual-hop path from the discovery
// origin; each greedy segment extends RouteFromOrigin.
type discoverPayload struct {
	Origin          ids.ID
	Dir             ids.Dir // Left: clockwise (seeking the max node)
	RouteFromOrigin sroute.Route
}

// discoverAckPayload returns the origin→endpoint route to the origin,
// tagged with the direction of the discovery it answers.
type discoverAckPayload struct {
	RouteFromOrigin sroute.Route
	Dir             ids.Dir
}

// dataPayload is an application packet riding SSR's greedy routing. With
// Anycast set, Dst is a point in the identifier space rather than a node:
// the packet is delivered to the key's *owner* — the first node clockwise
// at or after Dst on the virtual ring (Chord-style successor ownership,
// the semantics DHT applications over SSR rely on).
type dataPayload struct {
	Origin, Dst ids.ID
	Hops        int // physical transmissions so far
	Segments    int // greedy intermediate-destination hops so far
	Anycast     bool
	Body        any
}

// Delivery records a data packet that reached its destination. For anycast
// packets Dst is the key; the receiving node is its owner.
type Delivery struct {
	Origin, Dst ids.ID
	Hops        int // total physical transmissions used
	Segments    int // greedy segments used
	Anycast     bool
	Body        any
}

// pairKey names one notification operation (v1, side, v2, v3).
type pairKey struct {
	Low, High ids.ID // the two neighbors being introduced, Low < High
}

// revEntry is one reverse-neighbor record.
type revEntry struct {
	route sroute.Route // us -> the reverse neighbor
	at    sim.Time     // last refresh
}

type pendingOp struct {
	ackLow, ackHigh bool
	farther         ids.ID // the neighbor whose edge v1 tears down
	tear            bool   // whether this op removes the farther edge
	// gen distinguishes successive pendingOps for the same pair: the expiry
	// timer of an earlier op must not delete a newer op installed after the
	// earlier one completed (acks consumed it) and the pair was
	// re-introduced. Without the stamp a leftover timer silently kills the
	// newer op, losing its acks and its teardown.
	gen uint64
}

// Node is one SSR participant.
type Node struct {
	id      ids.ID
	net     phys.Transport
	courier *phys.Courier
	cfg     Config

	rc         *cache.Cache
	pending    map[pairKey]*pendingOp
	pendingGen uint64 // generation stamp for pendingOp expiry timers
	introduced map[pairKey]sim.Time
	// revNbrs tracks reverse neighbors: nodes known to cache a route to us
	// (we hear their notifications), with the reverse route and the last
	// refresh time. §4 makes the edges of E_v undirected; with Bounded
	// caches a node may evict a route while the other endpoint retains the
	// edge, and the retaining side's notifications keep the edge visible
	// here. Without this, close identifier pairs that every third party
	// collapses into one interval slot could never be introduced.
	revNbrs map[ids.ID]revEntry
	// tornDown tombstones partners that were deliberately removed (§4
	// teardown) or declared dead by the failure detector, mapping to the
	// tombstone's expiry time. Ambient traffic (keepalives, overheard
	// routes, stale third-party introductions) must not resurrect such an
	// edge: teardown mode would never quiesce, and gossip about a dead node
	// could circulate indefinitely.
	tornDown map[ids.ID]sim.Time
	// lastHeard is the failure detector's evidence: the last time any
	// packet from each cached destination arrived. Keepalives are
	// acknowledged, so a live two-way route refreshes this every keepalive
	// period; destinations silent for several periods are purged — this is
	// how SSR notices virtual links broken by churn (dead nodes or dead
	// intermediate hops).
	lastHeard map[ids.ID]sim.Time

	// Ring closure state: the wrap partners, exempt from linearization.
	// Wrap routes are stored here, not in the route cache, because the
	// cache's interval slots may be contested by ring-far but line-near
	// nodes; the wrap edge must survive regardless.
	wrapLeft, wrapRight           ids.ID
	hasWrapLeft, hasWrapRight     bool
	wrapLeftRoute, wrapRightRoute sroute.Route

	// OnDeliver, if set, observes data packets addressed to this node.
	OnDeliver func(d Delivery)
	// Failed counts data packets this node had to drop for lack of any
	// virtually closer candidate (routing failure).
	Failed int

	stopped bool
	ticks   int64
}

// NewNode creates and registers an SSR node. Call Start to begin activity.
func NewNode(net phys.Transport, id ids.ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		id:         id,
		net:        net,
		cfg:        cfg,
		rc:         cache.New(id, cfg.CacheMode),
		pending:    make(map[pairKey]*pendingOp),
		introduced: make(map[pairKey]sim.Time),
		revNbrs:    make(map[ids.ID]revEntry),
		tornDown:   make(map[ids.ID]sim.Time),
		lastHeard:  make(map[ids.ID]sim.Time),
	}
	n.courier = phys.NewCourier(net, id)
	n.courier.OnDeliver = n.deliver
	n.courier.OnForward = n.overhear
	net.Register(id, phys.HandlerFunc(func(m phys.Message) { n.courier.Handle(m) }))
	if fd, ok := net.(phys.FailureDetector); ok {
		// With a reliable transport underneath, the lease detector tells us
		// about dead physical neighbors long before our own keepalive
		// silence threshold (deadAfter ticks) would.
		fd.SubscribeLeases(id, n.onLease)
	}
	return n
}

// onLease consumes a failure-detector verdict about physical neighbor peer.
// Down: every cached route whose first hop crosses the dead link is
// unusable — purge it now instead of waiting out keepalive silence, and
// tombstone the peer so gossip cannot resurrect the direct edge while it is
// dead. Up: clear the tombstone and re-seed the direct edge (E_v := E_p for
// the healed link).
func (n *Node) onLease(peer ids.ID, up bool) {
	if n.stopped {
		return
	}
	if up {
		delete(n.tornDown, peer)
		if r, err := sroute.New(n.id, peer); err == nil {
			if n.rc.Insert(r) {
				n.lastHeard[peer] = n.net.Engine().Now()
				n.traceEvent(trace.EvEdgeAdd, peer, "lease-up")
			}
		}
		return
	}
	for _, dst := range n.rc.Destinations() {
		if r := n.rc.Route(dst); len(r) >= 2 && r[1] == peer {
			n.rc.Remove(dst)
			delete(n.lastHeard, dst)
			n.traceEvent(trace.EvEdgeDelegate, dst, "lease-down")
		}
	}
	for u, e := range n.revNbrs {
		if len(e.route) >= 2 && e.route[1] == peer {
			delete(n.revNbrs, u)
		}
	}
	if n.hasWrapLeft && (n.wrapLeft == peer || (len(n.wrapLeftRoute) >= 2 && n.wrapLeftRoute[1] == peer)) {
		n.hasWrapLeft, n.wrapLeftRoute = false, nil
	}
	if n.hasWrapRight && (n.wrapRight == peer || (len(n.wrapRightRoute) >= 2 && n.wrapRightRoute[1] == peer)) {
		n.hasWrapRight, n.wrapRightRoute = false, nil
	}
	n.tombstone(peer, deadAfter)
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

// Cache exposes the route cache for inspection by experiments.
func (n *Node) Cache() *cache.Cache { return n.rc }

// Successor returns this node's believed ring successor (the nearest right
// cache neighbor, or the wrap partner for the maximum node).
func (n *Node) Successor() (ids.ID, bool) { return n.successorID() }

// Predecessor returns this node's believed ring predecessor.
func (n *Node) Predecessor() (ids.ID, bool) { return n.predecessorID() }

// WrapPartners returns the established ring-closure partners.
func (n *Node) WrapPartners() (left, right ids.ID, hasLeft, hasRight bool) {
	return n.wrapLeft, n.wrapRight, n.hasWrapLeft, n.hasWrapRight
}

// Start seeds the cache with the physical neighborhood (E_v := E_p) and
// begins the maintenance tick. jitter staggers the first tick.
func (n *Node) Start(jitter sim.Time) {
	for _, u := range n.net.NeighborsOf(n.id) {
		if r, err := sroute.New(n.id, u); err == nil {
			n.rc.Insert(r)
		}
	}
	n.net.Engine().After(n.cfg.TickInterval+jitter, n.tick)
}

// Stop halts periodic activity after the current event.
func (n *Node) Stop() { n.stopped = true }

func (n *Node) tick() {
	if n.stopped {
		return
	}
	if !n.net.Up(n.id) {
		// Stay scheduled while down: a crashed node does no protocol work,
		// but keeping the chain alive means RecoverNode resumes maintenance
		// without anyone having to restart the node (crash/recover churn).
		n.net.Engine().After(n.cfg.TickInterval, n.tick)
		return
	}
	n.ticks++
	n.linearizeSide(ids.Right)
	n.linearizeSide(ids.Left)
	if n.cfg.CloseRing {
		n.maybeDiscover()
	}
	// Periodic keepalives let the other endpoint of every cached edge keep
	// its reverse-neighbor entry fresh. A node with a single virtual
	// neighbor sends no notifications, so without this its edge would
	// expire from the neighbor's view and the node would drop out of the
	// protocol entirely.
	if n.ticks%keepaliveEvery == 0 {
		now := n.net.Engine().Now()
		for _, dst := range n.rc.Destinations() {
			// Purge destinations that have been silent for several
			// keepalive periods: the node or the route to it is dead. The
			// tombstone outlives any gossip chain of stale third-party
			// routes, so the dead node cannot circulate indefinitely.
			if at, ok := n.lastHeard[dst]; ok && now-at > deadAfter*n.cfg.TickInterval {
				n.rc.Remove(dst)
				delete(n.revNbrs, dst)
				delete(n.lastHeard, dst)
				n.tombstone(dst, 4*deadAfter)
				continue
			}
			if r := n.rc.Route(dst); r != nil {
				n.courier.Send(r, KindKeepalive, nil)
			}
		}
		// Re-seed E_v from the *current* physical neighborhood: the link
		// layer knows which radios are in range right now (hello beacons in
		// a real deployment), so mobility-created links enter the virtual
		// graph and a direct neighbor is never tombstoned.
		for _, u := range n.net.NeighborsOf(n.id) {
			delete(n.tornDown, u)
			if r, err := sroute.New(n.id, u); err == nil {
				if n.rc.Insert(r) {
					n.lastHeard[u] = now
				}
			}
		}
	}
	n.net.Engine().After(n.cfg.TickInterval, n.tick)
}

// deadAfter is the failure-detection threshold in ticks (several keepalive
// periods, tolerant of sporadic frame loss).
const deadAfter = 5 * keepaliveEvery

// keepaliveEvery is the keepalive period in ticks — well under revNbrTTL.
const keepaliveEvery = 8

// lineNeighbors returns the cache destinations on the given side excluding
// wrap partners — the N_L / N_R sets of §4. Wrap partners are excluded by
// identity regardless of side: the minimum node's ring predecessor is the
// maximum node, which lies to its line-*right*.
func (n *Node) lineNeighbors(d ids.Dir) []ids.ID {
	now := n.net.Engine().Now()
	seen := ids.NewSet()
	var out []ids.ID
	add := func(u ids.ID) {
		if (n.hasWrapLeft && u == n.wrapLeft) || (n.hasWrapRight && u == n.wrapRight) {
			return
		}
		if ids.DirOf(n.id, u) == d && seen.Add(u) {
			out = append(out, u)
		}
	}
	for _, u := range n.rc.NeighborsDir(d) {
		add(u)
	}
	for u, e := range n.revNbrs {
		if now-e.at <= revNbrTTL*n.cfg.TickInterval {
			add(u)
		}
	}
	ids.SortAsc(out)
	return out
}

// revNbrTTL is how many tick intervals a reverse-neighbor entry stays live
// without a refreshing notification (two re-introduction periods).
const revNbrTTL = 64

// routeTo returns a usable route to x: the cached one, or the reverse
// route recorded for a reverse neighbor.
func (n *Node) routeTo(x ids.ID) sroute.Route {
	if r := n.rc.Route(x); r != nil {
		return r
	}
	if e, ok := n.revNbrs[x]; ok {
		return e.route
	}
	return nil
}

// linearizeSide performs the §4 linearization work on one side.
//
// With Teardown enabled this is the paper's operation verbatim: pick the
// two farthest neighbors v2 < v3, introduce them to each other, and — once
// both acknowledge — tear down the edge to the farther one, shrinking the
// neighbor set by one per completed operation (the message-level analog of
// pure linearization).
//
// Without Teardown, progress cannot come from removal, so the node instead
// introduces every *consecutive* pair of its sorted side list — exactly
// Algorithm 1's chain edges — which is the message-level analog of
// linearization with memory; combined with a Bounded cache it realizes LSN.
func (n *Node) linearizeSide(d ids.Dir) {
	nbrs := n.lineNeighbors(d)
	if len(nbrs) < 2 {
		return
	}
	if n.cfg.Teardown {
		// Farthest pair: Right side → the two largest; Left → two smallest.
		var a, b ids.ID // a closer to us than b
		if d == ids.Right {
			a, b = nbrs[len(nbrs)-2], nbrs[len(nbrs)-1]
		} else {
			a, b = nbrs[1], nbrs[0]
		}
		n.introduce(a, b, true)
		return
	}
	for i := 0; i+1 < len(nbrs); i++ {
		n.introduce(nbrs[i], nbrs[i+1], false)
	}
}

// introduce sends both §4 neighbor notifications for the pair (a, b). When
// tear is set, b (the farther neighbor) is torn down after both acks. Pairs
// are rate-limited: an introduction is not repeated while a previous one is
// pending or within the re-introduction interval, keeping steady-state
// traffic bounded while remaining robust to frame loss.
func (n *Node) introduce(a, b ids.ID, tear bool) {
	key := pairKey{Low: a, High: b}
	if key.Low > key.High {
		key.Low, key.High = key.High, key.Low
	}
	if _, busy := n.pending[key]; busy {
		return
	}
	now := n.net.Engine().Now()
	if last, seen := n.introduced[key]; seen && now-last < 32*n.cfg.TickInterval {
		return
	}
	ra, rb := n.routeTo(a), n.routeTo(b)
	if ra == nil || rb == nil {
		return
	}
	n.introduced[key] = now
	n.pendingGen++
	gen := n.pendingGen
	n.pending[key] = &pendingOp{farther: b, tear: tear, gen: gen}
	n.courier.Send(ra, KindNotify, notifyPayload{OtherRoute: rb.Clone(), Pair: key})
	n.courier.Send(rb, KindNotify, notifyPayload{OtherRoute: ra.Clone(), Pair: key})
	// Expire the pending pair if acks never arrive (lost frames, churn), so
	// the pair can be retried. The generation check keeps a stale timer from
	// deleting a newer op for the same pair.
	n.net.Engine().After(8*n.cfg.TickInterval, func() {
		if op, ok := n.pending[key]; ok && op.gen == gen {
			delete(n.pending, key)
		}
	})
}

// maybeDiscover sends ring-closure discovery from the extremal sides: a
// node with an empty left neighbor set sends clockwise discovery (seeking
// the node with an empty right set), and symmetrically for redundancy. An
// already-established wrap is re-validated: if the cache meanwhile knows a
// ring-closer partner, the stale wrap is dropped and discovery retried —
// this heals wraps that were established before the line had fully formed.
func (n *Node) maybeDiscover() {
	// Wrap state is only legitimate while the corresponding line side is
	// actually empty: a non-extremal node that adopted a wrap partner
	// during a transient empty-side phase would otherwise exempt its true
	// line neighbor from linearization forever. (The true extremes keep
	// theirs: the wrap partner itself is excluded from the side scan.)
	if n.hasWrapLeft && len(n.lineNeighbors(ids.Left)) > 0 {
		n.hasWrapLeft, n.wrapLeftRoute = false, nil
	}
	if n.hasWrapRight && len(n.lineNeighbors(ids.Right)) > 0 {
		n.hasWrapRight, n.wrapRightRoute = false, nil
	}
	if n.hasWrapLeft && !n.wrapStillBest(ids.Left) {
		n.hasWrapLeft, n.wrapLeftRoute = false, nil
	}
	if n.hasWrapRight && !n.wrapStillBest(ids.Right) {
		n.hasWrapRight, n.wrapRightRoute = false, nil
	}
	// Even an established wrap is re-probed periodically: with bounded
	// caches the extremal nodes may never learn of each other through the
	// cache alone (they evict each other's far-away entries), so a wrap
	// that was acknowledged by a transient dead end would otherwise freeze
	// forever. Re-discovery is cheap — only nodes with an empty side do it
	// — and best-wins adoption makes it converge to the true extreme.
	refresh := n.ticks%wrapRefreshEvery == 0
	if len(n.lineNeighbors(ids.Left)) == 0 && (!n.hasWrapLeft || refresh) {
		n.sendDiscover(ids.Left)
	}
	if n.cfg.BothDirections && len(n.lineNeighbors(ids.Right)) == 0 && (!n.hasWrapRight || refresh) {
		n.sendDiscover(ids.Right)
	}
}

// wrapRefreshEvery is the wrap re-probe period in ticks.
const wrapRefreshEvery = 8

// discoveryMetric returns the greedy metric of a discovery launched by
// origin in direction d: clockwise (Left) discovery seeks origin's ring
// predecessor, so candidates are ranked by clockwise distance *to* the
// origin; counter-clockwise (Right) discovery seeks the ring successor, so
// candidates are ranked by clockwise distance *from* the origin.
func discoveryMetric(origin ids.ID, d ids.Dir) func(ids.ID) uint64 {
	if d == ids.Left {
		return func(x ids.ID) uint64 { return ids.RingDist(x, origin) }
	}
	return func(x ids.ID) uint64 { return ids.RingDist(origin, x) }
}

// wrapStillBest reports whether the current wrap partner on side d is still
// the ring-closest candidate we know of.
func (n *Node) wrapStillBest(d ids.Dir) bool {
	metric := discoveryMetric(n.id, d)
	partner := n.wrapLeft
	if d == ids.Right {
		partner = n.wrapRight
	}
	best := metric(partner)
	for _, x := range n.rc.Destinations() {
		if x != n.id && metric(x) < best {
			return false
		}
	}
	for u := range n.liveRevNbrs() {
		if u != n.id && metric(u) < best {
			return false
		}
	}
	return true
}

// liveRevNbrs returns the fresh reverse-neighbor entries (see revNbrs).
func (n *Node) liveRevNbrs() map[ids.ID]sroute.Route {
	now := n.net.Engine().Now()
	out := make(map[ids.ID]sroute.Route, len(n.revNbrs))
	for u, e := range n.revNbrs {
		if now-e.at <= revNbrTTL*n.cfg.TickInterval {
			out[u] = e.route
		}
	}
	return out
}

// bestByMetric scans the virtual neighborhood — cache destinations plus
// live reverse neighbors, since E_v is undirected — for the node minimizing
// the metric, excluding the given origin.
func (n *Node) bestByMetric(exclude ids.ID, metric func(ids.ID) uint64) (ids.ID, sroute.Route, bool) {
	var bestID ids.ID
	var bestRoute sroute.Route
	found := false
	consider := func(x ids.ID, r sroute.Route) {
		if x == exclude || x == n.id || r == nil {
			return
		}
		if !found || metric(x) < metric(bestID) {
			bestID, bestRoute, found = x, r, true
		}
	}
	for _, x := range n.rc.Destinations() {
		consider(x, n.rc.Route(x))
	}
	for u, r := range n.liveRevNbrs() {
		consider(u, r)
	}
	return bestID, bestRoute, found
}

func (n *Node) sendDiscover(d ids.Dir) {
	metric := discoveryMetric(n.id, d)
	_, via, ok := n.bestByMetric(n.id, metric)
	if !ok || via == nil {
		return
	}
	n.courier.Send(via, KindDiscover, discoverPayload{
		Origin:          n.id,
		Dir:             d,
		RouteFromOrigin: via.Clone(),
	})
}

// deliver dispatches courier packets addressed to this node.
func (n *Node) deliver(pkt phys.SRPacket) {
	// Every received packet teaches the reverse route to its segment source
	// and proves the sender holds a route to us — refresh the undirected-
	// edge view (E_v, §4) regardless of message kind.
	back := pkt.Route.Reverse()
	n.learn(back)
	if len(back) >= 2 && back.Dst() != n.id && !n.tombstoned(back.Dst()) {
		now := n.net.Engine().Now()
		n.revNbrs[back.Dst()] = revEntry{route: back.Clone(), at: now}
		n.lastHeard[back.Dst()] = now
	}
	switch pkt.Kind {
	case KindNotify:
		n.handleNotify(pkt)
	case KindAck:
		n.handleAck(pkt)
	case KindKeepalive:
		// Acknowledge so the sender's failure detector sees the route live.
		if len(back) >= 2 {
			n.courier.Send(back, KindKeepAck, nil)
		}
	case KindKeepAck:
		// lastHeard was already refreshed above; nothing else to do.
	case KindTeardown:
		n.rc.Remove(pkt.Route.Src())
		delete(n.revNbrs, pkt.Route.Src())
		n.tombstone(pkt.Route.Src(), revNbrTTL)
		n.traceEvent(trace.EvEdgeDelegate, pkt.Route.Src(), "teardown-recv")
	case KindDiscover:
		n.handleDiscover(pkt)
	case KindDiscoverAck:
		n.handleDiscoverAck(pkt)
	case KindData:
		n.handleData(pkt)
	}
}

// overhear caches route segments of relayed packets (§1: nodes store
// overheard source routes).
func (n *Node) overhear(pkt phys.SRPacket) {
	if back := pkt.Route[:pkt.Hop+1].Reverse(); len(back) >= 2 {
		n.learn(back)
	}
	if fwd := pkt.Route[pkt.Hop:]; len(fwd) >= 2 {
		n.learn(fwd.Clone())
	}
}

// tombstoned reports whether the edge to x is currently tombstoned.
func (n *Node) tombstoned(x ids.ID) bool {
	expiry, ok := n.tornDown[x]
	if !ok {
		return false
	}
	if n.net.Engine().Now() >= expiry {
		delete(n.tornDown, x)
		return false
	}
	return true
}

// tombstone blocks re-learning routes to x for the given number of ticks.
func (n *Node) tombstone(x ids.ID, ticks sim.Time) {
	n.tornDown[x] = n.net.Engine().Now() + ticks*n.cfg.TickInterval
}

func (n *Node) learn(r sroute.Route) {
	// Received and overheard routes are untrusted input: a forged or
	// corrupted frame can carry a route that revisits a node, and caching
	// it would break source-route loop-freedom. Elide before inserting
	// (the elided route covers the same physical links, §1); the scan
	// keeps the common simple-route path allocation-free.
	if !routeSimple(r) {
		r = r.ElideLoops()
	}
	if len(r) >= 2 && r.Src() == n.id && r.Dst() != n.id && !n.tombstoned(r.Dst()) {
		if n.rc.Insert(r) {
			if _, ok := n.lastHeard[r.Dst()]; !ok {
				n.lastHeard[r.Dst()] = n.net.Engine().Now()
			}
			n.traceEvent(trace.EvEdgeAdd, r.Dst(), "")
		}
	}
}

// routeSimple reports whether no node repeats on r. Routes are short, so
// the quadratic scan beats building a set.
func routeSimple(r sroute.Route) bool {
	for i := 1; i < len(r); i++ {
		for j := 0; j < i; j++ {
			if r[i] == r[j] {
				return false
			}
		}
	}
	return true
}

// traceEvent emits a protocol-level event through the network's tracer:
// cached-route churn is E_v edge churn, and wrap adoption is ring closure.
func (n *Node) traceEvent(t trace.EventType, peer ids.ID, aux string) {
	if tr := n.net.Tracer(); tr != nil {
		tr.Emit(trace.Event{
			T: int64(n.net.Engine().Now()), Type: t, Node: n.id, Peer: peer, Aux: aux,
		})
	}
}

func (n *Node) handleNotify(pkt phys.SRPacket) {
	np, ok := pkt.Payload.(notifyPayload)
	if !ok {
		return
	}
	back := pkt.Route.Reverse() // us → notifier
	// A nil check is not enough: a forged or corrupted frame can carry an
	// empty non-nil route, and Src() on it panics.
	if len(np.OtherRoute) < 2 || len(back) < 2 || back.Dst() != np.OtherRoute.Src() {
		return
	}
	if composed, err := back.Append(np.OtherRoute); err == nil && len(composed) >= 2 {
		n.learn(composed)
	}
	// Acknowledge so the notifier can complete (and possibly tear down).
	n.courier.Send(back, KindAck, ackPayload{Pair: np.Pair})
}

func (n *Node) handleAck(pkt phys.SRPacket) {
	ap, ok := pkt.Payload.(ackPayload)
	if !ok {
		return
	}
	op, exists := n.pending[ap.Pair]
	if !exists {
		return
	}
	from := pkt.Route.Src()
	switch from {
	case ap.Pair.Low:
		op.ackLow = true
	case ap.Pair.High:
		op.ackHigh = true
	}
	if !(op.ackLow && op.ackHigh) {
		return
	}
	delete(n.pending, ap.Pair)
	if !op.tear {
		return
	}
	// Both sides confirmed: drop our edge to the farther neighbor and tell
	// it to drop its state for us too (§4's teardown acknowledgment).
	if r := n.rc.Route(op.farther); r != nil {
		n.courier.Send(r, KindTeardown, nil)
		n.rc.Remove(op.farther)
		delete(n.revNbrs, op.farther)
		n.tombstone(op.farther, revNbrTTL)
		n.traceEvent(trace.EvEdgeDelegate, op.farther, "teardown-send")
	}
}

func (n *Node) handleDiscover(pkt phys.SRPacket) {
	dp, ok := pkt.Payload.(discoverPayload)
	if !ok || dp.Origin == n.id {
		return
	}
	// Can we make greedy progress toward the sought extremal position? If
	// yes, extend the accumulated route and forward; if not, we are the
	// sought node: acknowledge, establishing the wrap edge.
	metric := discoveryMetric(dp.Origin, dp.Dir)
	if next, via, found := n.bestByMetric(dp.Origin, metric); found && via != nil && metric(next) < metric(n.id) {
		if extended, err := dp.RouteFromOrigin.Append(via); err == nil {
			n.courier.Send(via, KindDiscover, discoverPayload{
				Origin: dp.Origin, Dir: dp.Dir, RouteFromOrigin: extended,
			})
			return
		}
	}
	// We are the endpoint. Learn the wrap route and acknowledge. A
	// clockwise (Left) discovery makes its origin our ring successor, so we
	// record it on our right, and vice versa.
	back := dp.RouteFromOrigin.Reverse() // us → origin
	if len(back) < 2 || back.Src() != n.id {
		return
	}
	if dp.Dir == ids.Left {
		n.adoptWrap(ids.Right, dp.Origin, back)
	} else {
		n.adoptWrap(ids.Left, dp.Origin, back)
	}
	n.courier.Send(back, KindDiscoverAck, discoverAckPayload{RouteFromOrigin: dp.RouteFromOrigin.Clone(), Dir: dp.Dir})
}

// adoptWrap installs a wrap partner on the given ring side if it beats the
// incumbent under that side's discovery metric. Acks can arrive out of
// order (a stale pre-line discovery may be acknowledged after the correct
// one), so adoption must be best-wins, not last-wins.
func (n *Node) adoptWrap(side ids.Dir, partner ids.ID, route sroute.Route) {
	var metric func(ids.ID) uint64
	if side == ids.Left {
		// Our ring predecessor: ring-closest before us.
		metric = func(x ids.ID) uint64 { return ids.RingDist(x, n.id) }
	} else {
		// Our ring successor: ring-closest after us.
		metric = func(x ids.ID) uint64 { return ids.RingDist(n.id, x) }
	}
	switch side {
	case ids.Left:
		if n.hasWrapLeft && metric(n.wrapLeft) <= metric(partner) {
			return
		}
		n.wrapLeft, n.hasWrapLeft, n.wrapLeftRoute = partner, true, route.Clone()
		n.traceEvent(trace.EvRingClosed, partner, "wrap-left")
	default:
		if n.hasWrapRight && metric(n.wrapRight) <= metric(partner) {
			return
		}
		n.wrapRight, n.hasWrapRight, n.wrapRightRoute = partner, true, route.Clone()
		n.traceEvent(trace.EvRingClosed, partner, "wrap-right")
	}
}

func (n *Node) handleDiscoverAck(pkt phys.SRPacket) {
	da, ok := pkt.Payload.(discoverAckPayload)
	if !ok || len(da.RouteFromOrigin) < 2 || da.RouteFromOrigin.Src() != n.id {
		return
	}
	endpoint := da.RouteFromOrigin.Dst()
	if da.Dir == ids.Left {
		n.adoptWrap(ids.Left, endpoint, da.RouteFromOrigin)
	} else {
		n.adoptWrap(ids.Right, endpoint, da.RouteFromOrigin)
	}
}

// SendData launches an application packet toward dst using SSR's greedy
// routing. It reports whether a first segment could be sent (self-delivery
// counts as success).
func (n *Node) SendData(dst ids.ID, body any) bool {
	if dst == n.id {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: n.id, Dst: dst, Body: body})
		}
		return true
	}
	return n.forwardData(dataPayload{Origin: n.id, Dst: dst, Body: body})
}

// SendAnycast routes a packet to the owner of the given key: the first
// node clockwise at or after key on the virtual ring. Requires a converged
// ring (bootstrap with CloseRing for keys that wrap past the maximum).
func (n *Node) SendAnycast(key ids.ID, body any) bool {
	dp := dataPayload{Origin: n.id, Dst: key, Anycast: true, Body: body}
	if n.ownsKey(key) {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: n.id, Dst: key, Anycast: true, Body: body})
		}
		return true
	}
	return n.forwardAnycast(dp)
}

// predecessorID returns this node's believed ring predecessor: the wrap
// partner when the left side is empty, otherwise the nearest left neighbor.
func (n *Node) predecessorID() (ids.ID, bool) {
	if p, ok := n.rc.Nearest(ids.Left); ok {
		return p, true
	}
	if n.hasWrapLeft {
		return n.wrapLeft, true
	}
	return 0, false
}

// successorID mirrors predecessorID on the right side.
func (n *Node) successorID() (ids.ID, bool) {
	if s, ok := n.rc.Nearest(ids.Right); ok {
		return s, true
	}
	if n.hasWrapRight {
		return n.wrapRight, true
	}
	return 0, false
}

// ownsKey reports whether this node is the key's owner: the key lies in
// the arc (predecessor, self].
func (n *Node) ownsKey(key ids.ID) bool {
	pred, ok := n.predecessorID()
	if !ok {
		return true // only node we know of
	}
	return ids.BetweenIncl(key, pred, n.id)
}

// forwardAnycast performs one greedy step toward the key. When no cached
// candidate makes ring progress, this node is the key's closest
// predecessor, so the owner is our ring successor: hand the packet over
// directly.
func (n *Node) forwardAnycast(dp dataPayload) bool {
	if n.forwardData(dp) {
		return true
	}
	succ, ok := n.successorID()
	if !ok {
		return false
	}
	via := n.routeTo(succ)
	if via == nil && n.hasWrapRight && succ == n.wrapRight {
		via = n.wrapRightRoute
	}
	if via == nil {
		return false
	}
	return n.courier.Send(via, KindData, dp)
}

// handleData continues a packet at an intermediate destination or delivers.
func (n *Node) handleData(pkt phys.SRPacket) {
	dp, ok := pkt.Payload.(dataPayload)
	if !ok {
		return
	}
	dp.Hops += pkt.Route.Hops()
	dp.Segments++
	if dp.Dst == n.id || (dp.Anycast && n.ownsKey(dp.Dst)) {
		if n.OnDeliver != nil {
			n.OnDeliver(Delivery{Origin: dp.Origin, Dst: dp.Dst, Hops: dp.Hops,
				Segments: dp.Segments, Anycast: dp.Anycast, Body: dp.Body})
		}
		return
	}
	if dp.Anycast {
		if !n.forwardAnycast(dp) {
			n.Failed++
		}
		return
	}
	if !n.forwardData(dp) {
		n.Failed++
	}
}

// forwardData performs one greedy step (§1): pick the candidate virtually
// closest to the destination — from the cache (including intermediate nodes
// of cached routes) or from the reverse neighbors — and send the packet
// along the corresponding source route.
func (n *Node) forwardData(dp dataPayload) bool {
	var via sroute.Route
	bestDist := ids.RingDist(n.id, dp.Dst)
	if cand, ok := n.rc.BestToward(dp.Dst); ok {
		via = cand.Via
		bestDist = ids.RingDist(cand.Node, dp.Dst)
	}
	// RingDist(·, dst) is injective, so distinct reverse neighbors never
	// tie and the scan's result does not depend on map iteration order; a
	// reverse neighbor that equals the cache's pick keeps the cached route.
	for u, r := range n.liveRevNbrs() {
		if d := ids.RingDist(u, dp.Dst); d < bestDist {
			via, bestDist = r, d
		}
	}
	if n.hasWrapLeft && n.wrapLeftRoute != nil {
		if d := ids.RingDist(n.wrapLeft, dp.Dst); d < bestDist {
			via, bestDist = n.wrapLeftRoute, d
		}
	}
	if n.hasWrapRight && n.wrapRightRoute != nil {
		if d := ids.RingDist(n.wrapRight, dp.Dst); d < bestDist {
			via, bestDist = n.wrapRightRoute, d
		}
	}
	if via == nil {
		return false
	}
	return n.courier.Send(via, KindData, dp)
}
