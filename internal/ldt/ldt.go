// Package ldt implements Bristle's location dissemination trees
// (Section 2.3): per-mobile-node multicast trees over the registry nodes
// interested in that node's movement, shaped by each member's capacity and
// current workload exactly as in the paper's Figure 4 advertisement
// algorithm.
//
// A tree is *member-only*: it contains the mobile node (root) and its
// registered interested nodes, nothing else — the design the paper selects
// after the responsibility analysis of Figure 3. The package also provides
// the analytic responsibility formulas for both design alternatives, tree
// shape metrics (depth, level histogram), edge costs over an underlay
// distance function, and a locality-aware partition assignment used in the
// Figure 9 comparison.
package ldt

import (
	"fmt"
	"math"
	"sort"

	"bristle/internal/topology"
)

// Member is a participant of a location dissemination tree: the root
// (mobile node) or one of its registry nodes.
type Member struct {
	// ID is an opaque member identity (an overlay node ID in Bristle).
	ID int32
	// Capacity is the node's advertised ability C_t (the evaluation uses
	// the maximum number of network connections).
	Capacity float64
	// Used is the node's present workload Used_t; Avail = Capacity − Used.
	Used float64
	// Router is the member's current underlay attachment point, used for
	// locality-aware partitioning and edge-cost accounting.
	Router topology.RouterID
}

// Avail returns the member's remaining capacity.
func (m Member) Avail() float64 { return m.Capacity - m.Used }

// DistanceFunc returns the underlay cost between two attachment routers.
type DistanceFunc func(a, b topology.RouterID) float64

// Params configures tree construction.
type Params struct {
	// UnitCost is v, the cost of sending one update message. Must be > 0.
	UnitCost float64

	// Locality enables locality-aware partition assignment: after the
	// partition heads are chosen by capacity (as in Figure 4), remaining
	// members join the underlay-nearest head's partition subject to the
	// near-equal-size guarantee. Requires Dist.
	Locality bool

	// Dist supplies underlay distances; required when Locality is set and
	// for EdgeCost accounting (may be nil otherwise).
	Dist DistanceFunc
}

func (p Params) validate() error {
	if p.UnitCost <= 0 {
		return fmt.Errorf("ldt: UnitCost must be positive, got %v", p.UnitCost)
	}
	if p.Locality && p.Dist == nil {
		return fmt.Errorf("ldt: Locality requires a Dist function")
	}
	return nil
}

// Node is a vertex of a built tree.
type Node struct {
	Member   Member
	Level    int // root is level 1, matching Figure 8(a)'s labeling
	Children []*Node
	// Assigned is the number of registry members delegated to this node by
	// its parent (|partition(k)| in Figure 4), i.e. the subtree size minus
	// itself. The root's Assigned is len(registry).
	Assigned int
}

// Tree is a built location dissemination tree.
type Tree struct {
	Root *Node
	size int
}

// Size returns the number of members in the tree (root + registry).
func (t *Tree) Size() int { return t.size }

// Depth returns the number of levels (root-only tree has depth 1).
func (t *Tree) Depth() int {
	max := 0
	t.Walk(func(n *Node) {
		if n.Level > max {
			max = n.Level
		}
	})
	return max
}

// Walk visits every node in preorder.
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// LevelHistogram returns the number of members at each level, indexed from
// 1 (index 0 is unused). This reproduces the stacking of Figure 8(a).
func (t *Tree) LevelHistogram() []int {
	h := make([]int, t.Depth()+1)
	t.Walk(func(n *Node) { h[n.Level]++ })
	return h
}

// Edges returns the number of tree edges (Size−1 for a non-empty tree).
func (t *Tree) Edges() int {
	if t.size == 0 {
		return 0
	}
	return t.size - 1
}

// EdgeCost sums dist(parent, child) over all tree edges — the tree cost
// measured in Figure 9 (each edge's cost is the minimal underlay path
// weight between the two members' attachment routers).
func (t *Tree) EdgeCost(dist DistanceFunc) float64 {
	total := 0.0
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			total += dist(n.Member.Router, c.Member.Router)
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
	return total
}

// Build constructs the LDT for a mobile node (root) over its registry set
// by running the Figure 4 advertisement algorithm recursively. The
// registry slice is not modified.
func Build(root Member, registry []Member, p Params) (*Tree, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rootNode := &Node{Member: root, Level: 1, Assigned: len(registry)}
	rest := make([]Member, len(registry))
	copy(rest, registry)
	advertise(rootNode, rest, p)
	return &Tree{Root: rootNode, size: 1 + len(registry)}, nil
}

// advertise implements Figure 4 recursively: node parent must deliver the
// update to every member of list, and each head it delegates to does the
// same for the rest of its partition.
func advertise(parent *Node, list []Member, p Params) {
	for _, part := range Deal(parent.Member, list, p) {
		child := &Node{Member: part[0], Level: parent.Level + 1, Assigned: len(part) - 1}
		parent.Children = append(parent.Children, child)
		advertise(child, part[1:], p)
	}
}

// Deal is one step of Figure 4: parent, which must deliver an update to
// every member of list, delegates according to its available capacity. It
// sorts list in place, in decreasing order of capacity and then by ID, and
// returns the non-empty partitions, each head first and the rest in that
// order; each head delivers to the rest of its partition by the same step.
// An overloaded parent returns one partition, the whole list, headed by its
// most capable member. p must be valid, as Build checks.
func Deal(parent Member, list []Member, p Params) [][]Member {
	if len(list) == 0 {
		return nil
	}
	// sort R(i) in decreasing order of capacity (stable on ID for
	// determinism).
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].Capacity != list[j].Capacity {
			return list[i].Capacity > list[j].Capacity
		}
		return list[i].ID < list[j].ID
	})

	avail := parent.Avail()
	k := int(math.Floor(avail / p.UnitCost))
	if avail-p.UnitCost <= 0 || k < 1 {
		// Overloaded: report only to the registry node with the maximum
		// capacity; it advertises to the others on our behalf.
		return [][]Member{list}
	}
	if k > len(list) {
		k = len(list)
	}
	return partition(list, k, p)
}

// partition splits the capacity-sorted list into k near-equal lists.
//
// Without locality this is the paper's round-robin deal: element j goes to
// partition j mod k, so partition heads are the k most capable members and
// every partition's size differs by at most one.
//
// With locality the heads are still the top-k members by capacity, but the
// remaining members are dealt (in capacity order) to the underlay-nearest
// head whose partition has not yet reached the balanced size bound — the
// Figure 9 "with locality" variant. Both keep the head the most capable
// member of its partition.
func partition(list []Member, k int, p Params) [][]Member {
	parts := make([][]Member, k)
	if !p.Locality {
		for j, m := range list {
			parts[j%k] = append(parts[j%k], m)
		}
		return parts
	}

	// Heads: top-k by capacity.
	for j := 0; j < k; j++ {
		parts[j] = append(parts[j], list[j])
	}
	rest := list[k:]
	bound := (len(list) + k - 1) / k // max partition size (head included)
	for _, m := range rest {
		bestIdx := -1
		bestDist := math.Inf(1)
		for j := 0; j < k; j++ {
			if len(parts[j]) >= bound {
				continue
			}
			d := p.Dist(parts[j][0].Router, m.Router)
			if d < bestDist {
				bestDist, bestIdx = d, j
			}
		}
		if bestIdx == -1 {
			// All partitions at bound (can happen when len(list) divides
			// evenly); relax to the nearest head outright.
			for j := 0; j < k; j++ {
				d := p.Dist(parts[j][0].Router, m.Router)
				if d < bestDist {
					bestDist, bestIdx = d, j
				}
			}
		}
		parts[bestIdx] = append(parts[bestIdx], m)
	}
	return parts
}

// ResponsibilityMemberOnly returns the paper's analytic per-stationary-node
// responsibility for the member-only design: O(M/(N−M) · log N)
// (Section 2.3, plotted in Figure 3).
func ResponsibilityMemberOnly(n, m float64) float64 {
	if m >= n || n <= 1 {
		return math.Inf(1)
	}
	return m / (n - m) * math.Log2(n)
}

// ResponsibilityNonMemberOnly returns the analytic responsibility for the
// non-member-only design: O(M/(N−M) · (log N)²).
func ResponsibilityNonMemberOnly(n, m float64) float64 {
	if m >= n || n <= 1 {
		return math.Inf(1)
	}
	l := math.Log2(n)
	return m / (n - m) * l * l
}

// IdealDepth returns the depth of a perfectly balanced k-way advertisement
// over s registry members: the paper's O(log_k N) bound (footnote to
// Section 2.3.1), counting the root as level 1.
func IdealDepth(s, k int) int {
	if s <= 0 {
		return 1
	}
	if k < 2 {
		return s + 1 // chain
	}
	depth, covered, width := 1, 0, 1
	for covered < s {
		width *= k
		covered += width
		depth++
	}
	return depth
}
