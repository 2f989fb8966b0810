package topo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

func TestOutageKindParseRoundTrip(t *testing.T) {
	for _, k := range []OutageKind{OutageNone, OutageFixed, OutageExp} {
		got, err := ParseOutageKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseOutageKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if k, err := ParseOutageKind(""); err != nil || k != OutageNone {
		t.Errorf("empty kind = %v, %v; want OutageNone", k, err)
	}
	if k, err := ParseOutageKind("FIXED"); err != nil || k != OutageFixed {
		t.Errorf("case-insensitive parse = %v, %v; want OutageFixed", k, err)
	}
	if _, err := ParseOutageKind("bogus"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestOutageSpecEnabled(t *testing.T) {
	if (OutageSpec{}).Enabled() {
		t.Error("zero spec enabled")
	}
	if (OutageSpec{Kind: OutageExp, Up: time.Second}).Enabled() {
		t.Error("spec without Down enabled")
	}
	full := OutageSpec{Kind: OutageFixed, Up: time.Second, Down: 100 * time.Millisecond}
	if !full.Enabled() || !full.Hard() {
		t.Error("fixed hard spec should be enabled and hard")
	}
	soft := full
	soft.DownRate = units.Mbps
	if soft.Hard() {
		t.Error("spec with DownRate should be soft")
	}
	if (OutageSpec{}).String() != "none" {
		t.Errorf("zero spec renders %q, want none", (OutageSpec{}).String())
	}
	if s := soft.String(); !strings.Contains(s, "fixed") || !strings.Contains(s, "rate=") {
		t.Errorf("soft spec renders %q", s)
	}
}

func TestOutageClonePreserved(t *testing.T) {
	g := New("churned")
	g.AddNodes(2)
	id := g.MustAddLink(0, 1, units.Gbps, time.Millisecond)
	spec := OutageSpec{Kind: OutageExp, Up: 2 * time.Second, Down: 200 * time.Millisecond, DownRate: 10 * units.Mbps}
	g.SetLinkOutage(id, spec)
	if got := g.Clone().Link(id).Outage; got != spec {
		t.Errorf("clone outage = %+v, want %+v", got, spec)
	}
}
