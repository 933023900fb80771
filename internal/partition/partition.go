// Package partition splits a circuit DAG into K node-disjoint partitions
// for the logical-process engine (internal/lp). The partitioner is
// deterministic: the same circuit and K always produce the same Plan.
//
// The algorithm is level-grow + refine:
//
//  1. Nodes are ordered by topological level (longest distance from an
//     input) with node ID as the tiebreaker, then sliced into K
//     contiguous, equally sized blocks. Level-contiguous blocks put most
//     edges inside a partition or between adjacent partitions, matching
//     how activity waves flow through a combinational circuit.
//  2. A greedy boundary-refinement pass (a single-move variant of
//     Kernighan–Lin / Fiduccia–Mattheyses) repeatedly moves a node to a
//     neighboring partition when that strictly reduces the number of cut
//     edges and keeps partition sizes within a balance tolerance.
//
// The Plan also derives the per-channel lookahead the Chandy–Misra–Bryant
// protocol needs: an event crossing edge u→v is emitted at (processing
// time of u) + delay(u) + WireDelay, so a source partition whose local
// safe time is T can promise the destination that no event will arrive on
// the edge before T + delay(u) + WireDelay. A channel's lookahead is the
// minimum of that bound over its cut edges.
package partition

import (
	"fmt"
	"sort"

	"hjdes/internal/circuit"
)

// CutEdge is one circuit edge whose endpoints live in different
// partitions.
type CutEdge struct {
	Src     circuit.NodeID // source node (owns the output port)
	Dst     circuit.NodeID // destination node
	DstPort int            // input port index on Dst
	// Lookahead is the minimum increment between the source partition's
	// safe time and any future event on this edge:
	// delay(Src) + WireDelay.
	Lookahead int64
}

// Channel is one directed partition-to-partition message channel,
// aggregating every cut edge with the same (From, To) pair.
type Channel struct {
	From, To  int   // partition indices
	Lookahead int64 // min lookahead over Edges
	Edges     []int // indices into Plan.CutEdges
}

// Plan is the result of partitioning: the node→partition assignment, the
// cut edges, the derived channels, and quality statistics.
type Plan struct {
	K        int   // number of partitions (may be clamped below the request)
	Assign   []int // node ID → partition index
	Sizes    []int // node count per partition
	CutEdges []CutEdge
	Channels []Channel
	edges    int // total directed edge count of the circuit
}

// refineSweeps bounds the boundary-refinement passes; each sweep is
// O(edges), and gains shrink quickly.
const refineSweeps = 8

// balanceSlack is the fraction by which a partition may exceed the ideal
// size ceil(n/k) during refinement.
const balanceSlack = 0.1

// Partition splits c into k node-disjoint partitions. k must be positive;
// it is clamped to the node count so no partition is empty.
func Partition(c *circuit.Circuit, k int) (*Plan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	n := c.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("partition: circuit %q has no nodes", c.Name)
	}
	if k > n {
		k = n
	}

	p := &Plan{K: k, Assign: make([]int, n), Sizes: make([]int, k), edges: c.NumEdges()}
	order := LevelOrder(c)
	// Slice the level order into k blocks whose sizes differ by at most
	// one (the first n%k blocks get the extra node).
	quo, rem := n/k, n%k
	idx := 0
	for part := 0; part < k; part++ {
		size := quo
		if part < rem {
			size++
		}
		for i := 0; i < size; i++ {
			p.Assign[order[idx]] = part
			idx++
		}
		p.Sizes[part] = size
	}
	if k > 1 {
		p.refine(c)
	}
	p.deriveCut(c)
	return p, nil
}

// LevelOrder returns all node IDs sorted by (topological level, ID),
// where a node's level is its longest distance in edges from an input.
// The order is deterministic and consistent with every circuit edge, so
// any subsequence of it is a valid topological order of the induced
// subgraph; internal/lp relaxes its per-partition lookahead bounds along
// it.
func LevelOrder(c *circuit.Circuit) []circuit.NodeID {
	n := c.NumNodes()
	level := make([]int, n)
	indeg := make([]int, n)
	for i := range c.Nodes {
		indeg[i] = c.Nodes[i].NumIn()
	}
	// Kahn's algorithm; the circuit is a validated DAG, so every node is
	// eventually released.
	var frontier []circuit.NodeID
	for i := range c.Nodes {
		if indeg[i] == 0 {
			frontier = append(frontier, circuit.NodeID(i))
		}
	}
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		for _, d := range c.Nodes[id].Fanout {
			if l := level[id] + 1; l > level[d.Node] {
				level[d.Node] = l
			}
			indeg[d.Node]--
			if indeg[d.Node] == 0 {
				frontier = append(frontier, d.Node)
			}
		}
	}
	order := make([]circuit.NodeID, n)
	for i := range order {
		order[i] = circuit.NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if level[order[a]] != level[order[b]] {
			return level[order[a]] < level[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// refine greedily moves boundary nodes to the neighboring partition that
// removes the most cut edges, keeping sizes within the balance tolerance.
func (p *Plan) refine(c *circuit.Circuit) {
	n := c.NumNodes()
	maxSize := (n+p.K-1)/p.K + int(balanceSlack*float64(n)/float64(p.K))
	if maxSize < 2 {
		maxSize = 2
	}
	// gain counts, per foreign partition, the edges a node shares with
	// it; cands is its reusable sorted key list.
	gain := make(map[int]int, 8)
	var cands []int
	for sweep := 0; sweep < refineSweeps; sweep++ {
		moved := 0
		for i := 0; i < n; i++ {
			home := p.Assign[i]
			if p.Sizes[home] <= 1 {
				continue // never empty a partition
			}
			// Count, per foreign partition, the edges node i shares with
			// it; edges to home count against every candidate move.
			clear(gain)
			local := 0
			count := func(other circuit.NodeID) {
				if other == circuit.NoNode {
					return
				}
				if q := p.Assign[other]; q == home {
					local++
				} else {
					gain[q]++
				}
			}
			node := &c.Nodes[i]
			for _, src := range node.Fanin {
				count(src)
			}
			for _, d := range node.Fanout {
				count(d.Node)
			}
			// Candidates in ascending partition order: map iteration is
			// randomized, and the plan must be deterministic.
			cands := cands[:0]
			for q := range gain {
				cands = append(cands, q)
			}
			sort.Ints(cands)
			best, bestNet := -1, 0
			for _, q := range cands {
				if net := gain[q] - local; net > bestNet && p.Sizes[q] < maxSize {
					best, bestNet = q, net
				}
			}
			if best >= 0 {
				p.Sizes[home]--
				p.Sizes[best]++
				p.Assign[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// deriveCut fills CutEdges and Channels from the final assignment.
func (p *Plan) deriveCut(c *circuit.Circuit) {
	chanIdx := make(map[[2]int]int)
	for i := range c.Nodes {
		src := &c.Nodes[i]
		from := p.Assign[i]
		for _, d := range src.Fanout {
			to := p.Assign[d.Node]
			if to == from {
				continue
			}
			la := src.Kind.Delay() + circuit.WireDelay
			p.CutEdges = append(p.CutEdges, CutEdge{
				Src: src.ID, Dst: d.Node, DstPort: d.In, Lookahead: la,
			})
			key := [2]int{from, to}
			ci, ok := chanIdx[key]
			if !ok {
				ci = len(p.Channels)
				chanIdx[key] = ci
				p.Channels = append(p.Channels, Channel{From: from, To: to, Lookahead: la})
			}
			ch := &p.Channels[ci]
			ch.Edges = append(ch.Edges, len(p.CutEdges)-1)
			if la < ch.Lookahead {
				ch.Lookahead = la
			}
		}
	}
}

// EdgeCutFraction reports the fraction of circuit edges that cross
// partitions (0 for K=1).
func (p *Plan) EdgeCutFraction() float64 {
	if p.edges == 0 {
		return 0
	}
	return float64(len(p.CutEdges)) / float64(p.edges)
}

// LoadBalance reports the largest partition's node count divided by the
// ideal (mean) partition size; 1.0 is perfectly balanced.
func (p *Plan) LoadBalance() float64 {
	if len(p.Sizes) == 0 {
		return 0
	}
	max, total := 0, 0
	for _, s := range p.Sizes {
		total += s
		if s > max {
			max = s
		}
	}
	mean := float64(total) / float64(len(p.Sizes))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// MinLookahead reports the smallest channel lookahead, the bound that
// controls null-message progress (TimeInfinity-free; 0 when there are no
// channels).
func (p *Plan) MinLookahead() int64 {
	var min int64
	for i, ch := range p.Channels {
		if i == 0 || ch.Lookahead < min {
			min = ch.Lookahead
		}
	}
	return min
}

func (p *Plan) String() string {
	return fmt.Sprintf("plan{k=%d cut=%d/%d (%.1f%%) balance=%.2f lookahead>=%d}",
		p.K, len(p.CutEdges), p.edges, 100*p.EdgeCutFraction(), p.LoadBalance(), p.MinLookahead())
}
