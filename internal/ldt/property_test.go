package ldt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bristle/internal/topology"
)

// shapeString serializes a tree for structural comparison.
func shapeString(t *Tree) string {
	var b []byte
	var rec func(n *Node)
	rec = func(n *Node) {
		b = append(b, byte('('))
		b = append(b, []byte{byte(n.Member.ID), byte(n.Member.ID >> 8)}...)
		for _, c := range n.Children {
			rec(c)
		}
		b = append(b, byte(')'))
	}
	rec(t.Root)
	return string(b)
}

// TestPropertyPermutationInvariance: the Figure 4 algorithm sorts the
// registry first, so tree shape must not depend on input order.
func TestPropertyPermutationInvariance(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%30) + 1
		reg := mkMembers(count, 10, rng)
		root := Member{ID: -1, Capacity: 5}

		t1, err := Build(root, reg, Params{UnitCost: 1})
		if err != nil {
			return false
		}
		perm := make([]Member, count)
		for i, j := range rng.Perm(count) {
			perm[i] = reg[j]
		}
		t2, err := Build(root, perm, Params{UnitCost: 1})
		if err != nil {
			return false
		}
		return shapeString(t1) == shapeString(t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEdgeCostNonNegativeAndAdditive: edge cost over any metric
// is the sum over edges; with a constant metric it equals Edges()×c.
func TestPropertyEdgeCostNonNegativeAndAdditive(t *testing.T) {
	f := func(seed int64, n, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%25) + 1
		c := float64(cRaw%9) + 1
		tree, err := Build(Member{ID: -1, Capacity: 4}, mkMembers(count, 8, rng), Params{UnitCost: 1})
		if err != nil {
			return false
		}
		got := tree.EdgeCost(func(a, b topology.RouterID) float64 { return c })
		want := float64(tree.Edges()) * c
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDepthBounds: depth is between the ideal balanced depth for
// the maximum capacity and the chain length.
func TestPropertyDepthBounds(t *testing.T) {
	f := func(seed int64, n, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 1
		maxCap := int(capRaw%10) + 1
		reg := mkMembers(count, float64(maxCap), rng)
		tree, err := Build(Member{ID: -1, Capacity: float64(maxCap)}, reg, Params{UnitCost: 1})
		if err != nil {
			return false
		}
		d := tree.Depth()
		// Lower bound: a tree where everyone had the max capacity.
		lower := IdealDepth(count, maxCap)
		// Upper bound: the full chain.
		upper := count + 1
		return d >= lower && d <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLocalityNeverChangesMembership: locality-aware partitioning
// reshapes the tree but must deliver to exactly the same member set.
func TestPropertyLocalityNeverChangesMembership(t *testing.T) {
	dist := func(a, b topology.RouterID) float64 {
		d := float64(a - b)
		if d < 0 {
			d = -d
		}
		return d
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%30) + 1
		reg := mkMembers(count, 8, rng)
		root := Member{ID: -1, Capacity: 4}
		plain, err := Build(root, reg, Params{UnitCost: 1})
		if err != nil {
			return false
		}
		local, err := Build(root, reg, Params{UnitCost: 1, Locality: true, Dist: dist})
		if err != nil {
			return false
		}
		ids := func(tr *Tree) map[int32]bool {
			m := map[int32]bool{}
			tr.Walk(func(nd *Node) { m[nd.Member.ID] = true })
			return m
		}
		a, b := ids(plain), ids(local)
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDealHopByHopIsBuild: Build's tree is its hops' deals. Each
// hop here knows only its own member and the list it was handed, numbers
// that list by position as a live relay does, deals it once and hands each
// head the rest of its partition in the deal's order; over random
// registries with tied capacities, workloads (Used > 0, overloaded members
// among them) and locality on or off, the hops reproduce Build's tree.
func TestPropertyDealHopByHopIsBuild(t *testing.T) {
	dist := func(a, b topology.RouterID) float64 {
		d := float64(a - b)
		if d < 0 {
			d = -d
		}
		return d
	}
	var hop func(parent *Node, handed []Member, p Params)
	hop = func(parent *Node, handed []Member, p Params) {
		byPos := make([]Member, len(handed))
		for i, m := range handed {
			byPos[i] = m
			byPos[i].ID = int32(i)
		}
		for _, part := range Deal(parent.Member, byPos, p) {
			rest := make([]Member, len(part)-1)
			for i, m := range part[1:] {
				rest[i] = handed[m.ID]
			}
			child := &Node{Member: handed[part[0].ID], Level: parent.Level + 1, Assigned: len(rest)}
			parent.Children = append(parent.Children, child)
			hop(child, rest, p)
		}
	}
	f := func(seed int64, n uint8, locality bool) bool {
		rng := rand.New(rand.NewSource(seed))
		member := func(id int32) Member {
			m := Member{ID: id, Capacity: float64(1 + rng.Intn(4)), Router: topology.RouterID(rng.Intn(20))}
			if rng.Intn(3) == 0 {
				m.Used = float64(rng.Intn(3))
			}
			return m
		}
		reg := make([]Member, int(n%80)+1)
		for i := range reg {
			reg[i] = member(int32(i))
		}
		p := Params{UnitCost: 1, Locality: locality, Dist: dist}
		root := member(-1)
		tree, err := Build(root, reg, p)
		if err != nil {
			return false
		}
		hops := &Node{Member: root, Level: 1, Assigned: len(reg)}
		hop(hops, reg, p)
		return reflect.DeepEqual(tree.Root, hops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
