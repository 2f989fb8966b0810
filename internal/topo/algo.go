package topo

// ConnectedComponents returns the node sets of each connected component,
// ordered by their smallest node ID; within each component nodes appear in
// discovery (BFS) order.
func ConnectedComponents(g *Graph) [][]NodeID {
	n := g.NumNodes()
	seen := make([]bool, n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, NodeID(start))
		seen[start] = true
		var comp []NodeID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, lid := range g.IncidentLinks(u) {
				v := g.Link(lid).Other(u)
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g has exactly one connected component (and at
// least one node).
func IsConnected(g *Graph) bool {
	if g.NumNodes() == 0 {
		return false
	}
	return len(ConnectedComponents(g)) == 1
}
