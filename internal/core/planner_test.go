package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topo"
	"repro/internal/units"
)

func fig3Planner(mode PlannerMode) (*topo.Graph, *Planner, topo.Arc) {
	g := topo.Fig3()
	cfg := DefaultPlannerConfig()
	cfg.Mode = mode
	p := NewPlanner(g, cfg)
	bottleneck, _ := g.LinkBetween(1, 2)
	arc := topo.Arc{Link: bottleneck.ID, Dir: bottleneck.DirectionFrom(1)}
	return g, p, arc
}

func TestPlannerFig3(t *testing.T) {
	_, p, arc := fig3Planner(CapacityAware)
	residual := func(a topo.Arc) units.BitRate { return 5 * units.Mbps }
	if !p.HasDetour(arc, residual) {
		t.Fatal("Fig3 bottleneck should have a detour")
	}
	grants, unplaced := p.Plan(arc, 3*units.Mbps, residual)
	if unplaced != 0 {
		t.Errorf("unplaced = %v, want 0", unplaced)
	}
	if len(grants) != 1 {
		t.Fatalf("grants = %d, want 1", len(grants))
	}
	if grants[0].Rate != 3*units.Mbps {
		t.Errorf("grant rate = %v, want 3Mbps", grants[0].Rate)
	}
	// The detour runs r(1) → d(3) → dstA(2).
	want := []topo.NodeID{1, 3, 2}
	for i, n := range grants[0].Sub.Path {
		if n != want[i] {
			t.Fatalf("detour path = %v, want %v", grants[0].Sub.Path, want)
		}
	}
	if len(grants[0].Arcs) != 2 {
		t.Errorf("detour arcs = %d, want 2", len(grants[0].Arcs))
	}
}

func TestPlannerRespectsResidual(t *testing.T) {
	_, p, arc := fig3Planner(CapacityAware)
	// Only 1 Mbps spare on the detour: 2 of 3 Mbps stay unplaced.
	residual := func(a topo.Arc) units.BitRate { return units.Mbps }
	grants, unplaced := p.Plan(arc, 3*units.Mbps, residual)
	if len(grants) != 1 || grants[0].Rate != units.Mbps {
		t.Errorf("grants = %+v, want one 1Mbps grant", grants)
	}
	if unplaced != 2*units.Mbps {
		t.Errorf("unplaced = %v, want 2Mbps", unplaced)
	}
}

func TestPlannerNoDetour(t *testing.T) {
	g := topo.Line(3)
	p := NewPlanner(g, DefaultPlannerConfig())
	arc := topo.Arc{Link: 0, Dir: topo.Forward}
	if p.HasDetour(arc, nil) {
		t.Error("line link should have no detour")
	}
	grants, unplaced := p.Plan(arc, units.Mbps, func(topo.Arc) units.BitRate { return units.Gbps })
	if len(grants) != 0 || unplaced != units.Mbps {
		t.Errorf("no-detour plan = %v grants, %v unplaced", len(grants), unplaced)
	}
}

func TestPlannerZeroOverflow(t *testing.T) {
	_, p, arc := fig3Planner(CapacityAware)
	grants, unplaced := p.Plan(arc, 0, func(topo.Arc) units.BitRate { return units.Gbps })
	if grants != nil || unplaced != 0 {
		t.Error("zero overflow should be a no-op")
	}
}

func TestPlannerBlindMode(t *testing.T) {
	g := topo.Clique(5)
	cfg := DefaultPlannerConfig()
	cfg.Mode = Blind
	cfg.ExtraHop = false
	p := NewPlanner(g, cfg)
	arc := topo.Arc{Link: 0, Dir: topo.Forward} // K5: 3 one-hop detours
	grants, unplaced := p.Plan(arc, 9*units.Mbps, func(topo.Arc) units.BitRate { return 0 })
	if unplaced != 0 {
		t.Error("blind mode never reports unplaced traffic")
	}
	if len(grants) != 3 {
		t.Fatalf("blind grants = %d, want 3", len(grants))
	}
	for _, gr := range grants {
		if gr.Rate != 3*units.Mbps {
			t.Errorf("blind grant = %v, want equal 3Mbps split", gr.Rate)
		}
	}
}

func TestPlannerReverseDirection(t *testing.T) {
	_, p, _ := fig3Planner(CapacityAware)
	g := topo.Fig3()
	bottleneck, _ := g.LinkBetween(1, 2)
	revArc := topo.Arc{Link: bottleneck.ID, Dir: bottleneck.DirectionFrom(2)}
	cands := p.Candidates(revArc.Link, revArc.Dir)
	if len(cands) != 1 {
		t.Fatalf("reverse candidates = %d, want 1", len(cands))
	}
	// Oriented dstA(2) → d(3) → r(1).
	want := []topo.NodeID{2, 3, 1}
	for i, n := range cands[0].Path {
		if n != want[i] {
			t.Fatalf("reverse detour = %v, want %v", cands[0].Path, want)
		}
	}
}

// TestPlannerNeverOvercommitsDonors: the capacity-aware planner must keep
// the total granted rate across a donor arc within its residual, even when
// candidates share arcs.
func TestPlannerNeverOvercommitsDonors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.ErdosRenyi(8, 0.5, seed)
		if g.NumLinks() == 0 {
			return true
		}
		p := NewPlanner(g, DefaultPlannerConfig())
		residuals := make(map[topo.Arc]units.BitRate)
		residual := func(a topo.Arc) units.BitRate {
			if r, ok := residuals[a]; ok {
				return r
			}
			r := units.BitRate(rng.Intn(10)) * units.Mbps
			residuals[a] = r
			return r
		}
		arc := topo.Arc{Link: topo.LinkID(rng.Intn(g.NumLinks())), Dir: topo.Forward}
		overflow := units.BitRate(1+rng.Intn(50)) * units.Mbps
		grants, unplaced := p.Plan(arc, overflow, residual)

		var placed units.BitRate
		donorLoad := make(map[topo.Arc]units.BitRate)
		for _, gr := range grants {
			if gr.Rate <= 0 {
				return false
			}
			placed += gr.Rate
			for _, a := range gr.Arcs {
				donorLoad[a] += gr.Rate
			}
		}
		if placed+unplaced != overflow {
			return false
		}
		for a, load := range donorLoad {
			if load > residuals[a]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPlannerCandidateCache(t *testing.T) {
	g := topo.Clique(6)
	p := NewPlanner(g, DefaultPlannerConfig())
	a := p.Candidates(0, topo.Forward)
	b := p.Candidates(0, topo.Forward)
	if len(a) != len(b) {
		t.Error("cached candidates differ")
	}
}

// TestPlannerCacheGrowsForNewLinks covers the lazily grown candidate
// cache: a link added after the planner was built gets its candidates in
// both orientations, and the reverse orientation is the forward one
// walked backwards.
func TestPlannerCacheGrowsForNewLinks(t *testing.T) {
	g := topo.Ring(5)
	p := NewPlanner(g, DefaultPlannerConfig())
	p.Candidates(0, topo.Reverse) // fills part of the cache first
	id := g.MustAddLink(0, 2, units.Gbps, 0)
	rev := p.Candidates(id, topo.Reverse)
	fwd := p.Candidates(id, topo.Forward)
	if len(fwd) == 0 || len(fwd) != len(rev) {
		t.Fatalf("new link: %d forward vs %d reverse candidates", len(fwd), len(rev))
	}
	for i, s := range fwd {
		r := rev[i].Path
		if s.Path[0] != r[len(r)-1] || s.Path[len(s.Path)-1] != r[0] {
			t.Errorf("candidate %d: reverse %v is not forward %v reversed", i, r, s.Path)
		}
	}
	if !p.HasDetour(topo.Arc{Link: id, Dir: topo.Forward}, nil) {
		t.Error("new link reports no detour")
	}
}
