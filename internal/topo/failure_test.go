package topo

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

func TestCalendarValidate(t *testing.T) {
	ok := CalendarSpec{Windows: []Window{{time.Second, 2 * time.Second}, {4 * time.Second, 5 * time.Second}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid calendar rejected: %v", err)
	}
	bad := []CalendarSpec{
		{Windows: []Window{{-time.Second, time.Second}}},                                        // negative start
		{Windows: []Window{{time.Second, time.Second}}},                                         // empty window
		{Windows: []Window{{2 * time.Second, time.Second}}},                                     // inverted
		{Windows: []Window{{3 * time.Second, 4 * time.Second}, {time.Second, 2 * time.Second}}}, // unsorted
		{Windows: []Window{{time.Second, 3 * time.Second}, {2 * time.Second, 4 * time.Second}}}, // overlap
		{Windows: []Window{{0, time.Second}}, DownRate: -units.Mbps},                            // negative rate
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: calendar %v should be rejected", i, c)
		}
	}
}

func TestOutageValidate(t *testing.T) {
	ok := []OutageSpec{
		{},
		{Kind: OutageExp, Up: time.Second, Down: 100 * time.Millisecond},
		{Kind: OutageFixed, Up: time.Second, Down: time.Second, DownRate: units.Mbps},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("case %d: valid spec rejected: %v", i, err)
		}
	}
	bad := []OutageSpec{
		{Kind: OutageExp, Up: -time.Second, Down: time.Second},
		{Kind: OutageExp, Up: time.Second, Down: -time.Second},
		{Kind: OutageExp, Up: time.Second},     // missing down
		{Kind: OutageFixed, Down: time.Second}, // missing up
		{Up: time.Second, Down: time.Second},   // params without kind
		{Kind: OutageExp, Up: time.Second, Down: time.Second, DownRate: -units.Mbps},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: spec %+v should be rejected", i, o)
		}
	}
}

func TestParseWindows(t *testing.T) {
	ws, err := ParseWindows(" 1s-2s ; 4.5s-6s ")
	if err != nil {
		t.Fatalf("ParseWindows: %v", err)
	}
	want := []Window{{time.Second, 2 * time.Second}, {4500 * time.Millisecond, 6 * time.Second}}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("ParseWindows = %v, want %v", ws, want)
	}
	if ws, err := ParseWindows(""); err != nil || ws != nil {
		t.Fatalf("empty string should parse as no windows, got %v, %v", ws, err)
	}
	for _, s := range []string{"1s", "1s-2s-3s;", "x-2s", "1s-y"} {
		if _, err := ParseWindows(s); err == nil {
			t.Errorf("ParseWindows(%q) should fail", s)
		}
	}
}

func failoverTriangle(t *testing.T) (*Graph, LinkID, LinkID) {
	t.Helper()
	g := New("tri")
	a, b, c := g.AddNode(""), g.AddNode(""), g.AddNode("")
	l0 := g.MustAddLink(a, b, units.Gbps, time.Millisecond)
	l1 := g.MustAddLink(b, c, units.Gbps, time.Millisecond)
	return g, l0, l1
}

func TestAddSRLGValidation(t *testing.T) {
	g, l0, l1 := failoverTriangle(t)
	good := SRLG{Name: "conduit", Links: []LinkID{l0, l1},
		Outage: OutageSpec{Kind: OutageExp, Up: time.Second, Down: 100 * time.Millisecond}}
	if err := g.AddSRLG(good); err != nil {
		t.Fatalf("valid SRLG rejected: %v", err)
	}
	bad := []SRLG{
		{Links: []LinkID{l0}},                    // unnamed
		{Name: "conduit", Links: []LinkID{l0}},   // duplicate name
		{Name: "empty"},                          // no links
		{Name: "ghost", Links: []LinkID{99}},     // unknown link
		{Name: "twice", Links: []LinkID{l0, l0}}, // duplicate member
		{Name: "badspec", Links: []LinkID{l0}, Outage: OutageSpec{Kind: OutageExp}},
		{Name: "badcal", Links: []LinkID{l0}, Calendar: CalendarSpec{Windows: []Window{{time.Second, time.Second}}}},
	}
	for i, s := range bad {
		if err := g.AddSRLG(s); err == nil {
			t.Errorf("case %d: SRLG %+v should be rejected", i, s)
		}
	}
	if n := len(g.SRLGs()); n != 1 {
		t.Fatalf("graph has %d SRLGs, want 1", n)
	}
}

func TestSettersPanicLoudly(t *testing.T) {
	g, l0, _ := failoverTriangle(t)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected a panic", name)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "topo:") {
				t.Errorf("%s: panic %v is not a descriptive topo error", name, r)
			}
		}()
		f()
	}
	expectPanic("SetLinkOutage unknown id", func() {
		g.SetLinkOutage(42, OutageSpec{Kind: OutageExp, Up: time.Second, Down: time.Second})
	})
	expectPanic("SetLinkOutage invalid spec", func() {
		g.SetLinkOutage(l0, OutageSpec{Kind: OutageExp, Up: -time.Second, Down: time.Second})
	})
	expectPanic("SetLinkCalendar unknown id", func() {
		g.SetLinkCalendar(-1, CalendarSpec{Windows: []Window{{0, time.Second}}})
	})
	expectPanic("SetLinkCalendar invalid spec", func() {
		g.SetLinkCalendar(l0, CalendarSpec{Windows: []Window{{time.Second, time.Second}}})
	})
	expectPanic("SetLinkLoss unknown id", func() { g.SetLinkLoss(7, 0.5) })
	expectPanic("SetLinkLoss out of range", func() { g.SetLinkLoss(l0, 1.5) })
	expectPanic("SetLinkLoss negative", func() { g.SetLinkLoss(l0, -0.1) })
}

func TestCloneIsolatesFailureState(t *testing.T) {
	g, l0, l1 := failoverTriangle(t)
	g.SetLinkCalendar(l0, CalendarSpec{Windows: []Window{{time.Second, 2 * time.Second}}})
	g.SetLinkLoss(l1, 0.05)
	g.MustAddSRLG(SRLG{Name: "conduit", Links: []LinkID{l0, l1},
		Calendar: CalendarSpec{Windows: []Window{{3 * time.Second, 4 * time.Second}}}})

	c := g.Clone()
	c.links[0].Calendar.Windows[0].End = 9 * time.Second
	c.srlgs[0].Links[0] = l1
	c.srlgs[0].Calendar.Windows[0].Start = 0
	if g.Link(l0).Calendar.Windows[0].End != 2*time.Second {
		t.Error("Clone shares link calendar windows")
	}
	if g.SRLGs()[0].Links[0] != l0 || g.SRLGs()[0].Calendar.Windows[0].Start != 3*time.Second {
		t.Error("Clone shares SRLG state")
	}
	if c.Link(l1).LossProb != 0.05 {
		t.Error("Clone lost loss probability")
	}
}
