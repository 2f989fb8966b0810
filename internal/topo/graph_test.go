package topo

import (
	"testing"
	"time"

	"repro/internal/units"
)

func TestGraphBasics(t *testing.T) {
	g := New("test")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("")
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.Node(c).Name != "n2" {
		t.Errorf("auto name = %q, want n2", g.Node(c).Name)
	}
	lid, err := g.AddLink(a, b, 10*units.Gbps, time.Millisecond)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", g.NumLinks())
	}
	l := g.Link(lid)
	if l.Other(a) != b || l.Other(b) != a {
		t.Error("Other returned wrong endpoint")
	}
	if l.DirectionFrom(a) != Forward || l.DirectionFrom(b) != Reverse {
		t.Error("DirectionFrom wrong")
	}
	if got, ok := g.LinkBetween(b, a); !ok || got.ID != lid {
		t.Error("LinkBetween should find the link in either order")
	}
	if !g.HasLink(a, b) || g.HasLink(a, c) {
		t.Error("HasLink wrong")
	}
	if g.Degree(a) != 1 || g.Degree(c) != 0 {
		t.Error("Degree wrong")
	}
	if ns := g.Neighbors(a); len(ns) != 1 || ns[0] != b {
		t.Errorf("Neighbors(a) = %v, want [b]", ns)
	}
}

func TestGraphRejectsBadLinks(t *testing.T) {
	g := New("test")
	a := g.AddNode("a")
	b := g.AddNode("b")
	if _, err := g.AddLink(a, a, units.Gbps, 0); err == nil {
		t.Error("self-loop should be rejected")
	}
	if _, err := g.AddLink(a, NodeID(99), units.Gbps, 0); err == nil {
		t.Error("unknown endpoint should be rejected")
	}
	if _, err := g.AddLink(a, b, units.Gbps, 0); err != nil {
		t.Fatalf("first link: %v", err)
	}
	if _, err := g.AddLink(b, a, units.Gbps, 0); err == nil {
		t.Error("duplicate (reversed) link should be rejected")
	}
}

func TestGraphClone(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	c.AddNode("extra")
	c.MustAddLink(0, 5, units.Gbps, 0)
	if g.NumNodes() != 5 || g.NumLinks() != 5 {
		t.Error("clone mutation leaked into original")
	}
	if c.NumNodes() != 6 || c.NumLinks() != 6 {
		t.Error("clone did not accept mutation")
	}
}

func TestBuilders(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		nodes     int
		links     int
		connected bool
	}{
		{"line", Line(5), 5, 4, true},
		{"ring", Ring(6), 6, 6, true},
		{"star", Star(4), 5, 4, true},
		{"grid", Grid(3, 4), 12, 17, true},
		{"tree", Tree(2, 3), 15, 14, true},
		{"clique", Clique(5), 5, 10, true},
		{"fig3", Fig3(), 5, 5, true},
	}
	for _, tt := range tests {
		if tt.g.NumNodes() != tt.nodes {
			t.Errorf("%s: nodes = %d, want %d", tt.name, tt.g.NumNodes(), tt.nodes)
		}
		if tt.g.NumLinks() != tt.links {
			t.Errorf("%s: links = %d, want %d", tt.name, tt.g.NumLinks(), tt.links)
		}
		if IsConnected(tt.g) != tt.connected {
			t.Errorf("%s: connected = %v, want %v", tt.name, IsConnected(tt.g), tt.connected)
		}
	}
}

func TestFig3Capacities(t *testing.T) {
	g := Fig3()
	l, ok := g.LinkBetween(1, 2)
	if !ok || l.Capacity != 2*units.Mbps {
		t.Errorf("bottleneck link capacity = %v, want 2Mbps", l.Capacity)
	}
	l, ok = g.LinkBetween(0, 1)
	if !ok || l.Capacity != 10*units.Mbps {
		t.Errorf("shared link capacity = %v, want 10Mbps", l.Capacity)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New("two-parts")
	g.AddNodes(5)
	g.MustAddLink(0, 1, units.Gbps, 0)
	g.MustAddLink(1, 2, units.Gbps, 0)
	g.MustAddLink(3, 4, units.Gbps, 0)
	comps := ConnectedComponents(g)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d,%d want 3,2", len(comps[0]), len(comps[1]))
	}
	Connect(g)
	if !IsConnected(g) {
		t.Error("Connect should make the graph connected")
	}
}

// Bridges returns the IDs of all bridge links (links whose removal would
// disconnect their component), using Tarjan's low-link algorithm. A link is
// a bridge exactly when it admits no detour at all — the "N/A" class of the
// paper's Table 1 — so the gadget tests use it as an oracle independent of
// route's detour classifier.
func Bridges(g *Graph) []LinkID {
	n := g.NumNodes()
	disc := make([]int, n) // discovery times, 0 = unvisited
	low := make([]int, n)  // lowest discovery time reachable
	timer := 0
	var bridges []LinkID

	// Iterative DFS to survive deep graphs (pendant chains in the ISP
	// gadget topologies can be long).
	type frame struct {
		node    NodeID
		viaLink LinkID // link used to reach node; -1 at roots
		edgeIdx int    // next incident link to explore
	}
	for start := 0; start < n; start++ {
		if disc[start] != 0 {
			continue
		}
		stack := []frame{{node: NodeID(start), viaLink: -1}}
		timer++
		disc[start] = timer
		low[start] = timer
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			links := g.IncidentLinks(f.node)
			if f.edgeIdx < len(links) {
				lid := links[f.edgeIdx]
				f.edgeIdx++
				if lid == f.viaLink {
					continue // don't go straight back over the tree link
				}
				v := g.Link(lid).Other(f.node)
				if disc[v] == 0 {
					timer++
					disc[v] = timer
					low[v] = timer
					stack = append(stack, frame{node: v, viaLink: lid})
				} else if disc[v] < low[f.node] {
					low[f.node] = disc[v]
				}
				continue
			}
			// Post-order: propagate low-link to parent and test the link.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := &stack[len(stack)-1]
				if low[f.node] < low[parent.node] {
					low[parent.node] = low[f.node]
				}
				if low[f.node] > disc[parent.node] {
					bridges = append(bridges, f.viaLink)
				}
			}
		}
	}
	return bridges
}

func TestBridges(t *testing.T) {
	// Two triangles joined by a single link: only the joiner is a bridge.
	g := New("barbell")
	g.AddNodes(6)
	g.MustAddLink(0, 1, units.Gbps, 0)
	g.MustAddLink(1, 2, units.Gbps, 0)
	g.MustAddLink(2, 0, units.Gbps, 0)
	g.MustAddLink(3, 4, units.Gbps, 0)
	g.MustAddLink(4, 5, units.Gbps, 0)
	g.MustAddLink(5, 3, units.Gbps, 0)
	bridge := g.MustAddLink(2, 3, units.Gbps, 0)
	got := Bridges(g)
	if len(got) != 1 || got[0] != bridge {
		t.Errorf("Bridges = %v, want [%d]", got, bridge)
	}
}

func TestBridgesLineAndRing(t *testing.T) {
	if got := Bridges(Line(10)); len(got) != 9 {
		t.Errorf("line: %d bridges, want 9", len(got))
	}
	if got := Bridges(Ring(10)); len(got) != 0 {
		t.Errorf("ring: %d bridges, want 0", len(got))
	}
	if got := Bridges(Tree(2, 4)); len(got) != 30 {
		t.Errorf("tree: %d bridges, want 30", len(got))
	}
}

func TestRandomGenerators(t *testing.T) {
	er := ErdosRenyi(30, 0.2, 42)
	if er.NumNodes() != 30 {
		t.Errorf("ER nodes = %d", er.NumNodes())
	}
	er2 := ErdosRenyi(30, 0.2, 42)
	if er.NumLinks() != er2.NumLinks() {
		t.Error("ER should be deterministic per seed")
	}

	ba := BarabasiAlbert(50, 2, 7)
	if ba.NumNodes() != 50 {
		t.Errorf("BA nodes = %d", ba.NumNodes())
	}
	// Seed clique (3 nodes, 3 links) + 47 nodes × 2 links.
	if want := 3 + 47*2; ba.NumLinks() != want {
		t.Errorf("BA links = %d, want %d", ba.NumLinks(), want)
	}
	if !IsConnected(ba) {
		t.Error("BA graph should be connected by construction")
	}

	wx := Waxman(40, 0.8, 0.5, 3)
	if wx.NumNodes() != 40 {
		t.Errorf("Waxman nodes = %d", wx.NumNodes())
	}
}
