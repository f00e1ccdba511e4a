package cfg

// Dominators computes the immediate-dominator tree of the graph with the
// iterative Cooper–Harvey–Kennedy algorithm over the reverse post-order.
// The result maps each block ID to its immediate dominator; the entry block
// maps to itself and unreachable blocks map to -1.
func (g *Graph) Dominators() []int { return g.DominatorsIn(Heap{}) }

// DominatorsIn is Dominators with the result carved from a.
func (g *Graph) DominatorsIn(a Alloc) []int {
	n := len(g.Blocks)
	idom := a.Ints(n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	idom[0] = 0

	rpoNum := g.rpoNum
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.rpo[:g.nreach] {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue // predecessor not processed yet or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under the given
// immediate-dominator tree (as returned by Dominators). Every block
// dominates itself; unreachable blocks dominate nothing and are dominated
// by nothing but themselves.
func Dominates(idom []int, a, b int) bool {
	if a < 0 || b < 0 || a >= len(idom) || b >= len(idom) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == -1 || next == b {
			return false
		}
		b = next
	}
}
