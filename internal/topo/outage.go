package topo

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/units"
)

// OutageKind selects the distribution of a link's up/down cycle durations.
type OutageKind int

// The churn-process families.
const (
	// OutageNone disables churn: the link is always up.
	OutageNone OutageKind = iota
	// OutageFixed is a deterministic cycle: exactly Up up, then exactly
	// Down down, repeating — maintenance windows, duty-cycled radios.
	OutageFixed
	// OutageExp is memoryless churn: up and down durations drawn from
	// exponential distributions with means Up and Down — the classic
	// two-state Markov (Gilbert) link model.
	OutageExp
)

// String names the kind in the form ParseOutageKind accepts.
func (k OutageKind) String() string {
	switch k {
	case OutageNone:
		return "none"
	case OutageFixed:
		return "fixed"
	case OutageExp:
		return "exp"
	default:
		return fmt.Sprintf("OutageKind(%d)", int(k))
	}
}

// ParseOutageKind maps a churn-kind name to its OutageKind,
// case-insensitively — the one decoder for every sweep with an outage
// axis. The empty string parses as OutageNone.
func ParseOutageKind(s string) (OutageKind, error) {
	switch strings.ToLower(s) {
	case "", "none":
		return OutageNone, nil
	case "fixed":
		return OutageFixed, nil
	case "exp":
		return OutageExp, nil
	}
	return 0, fmt.Errorf("topo: unknown outage kind %q (known: none, fixed, exp)", s)
}

// OutageSpec declares a link's churn process: an alternating up/down
// cycle whose durations are exact (OutageFixed) or exponentially
// distributed with the given means (OutageExp). The process itself is
// driven by the simulator consuming the spec — deterministically, from a
// seeded per-arc stream — so a spec carries no randomness of its own.
//
// The zero value disables churn.
type OutageSpec struct {
	Kind OutageKind
	// Up is the up-phase duration: exact for OutageFixed, the mean for
	// OutageExp. Its inverse is the outage rate.
	Up time.Duration
	// Down is the down-phase duration (exact or mean, as above).
	Down time.Duration
	// DownRate is the per-direction capacity while down. Zero is a hard
	// outage: the arc pauses entirely and in-flight packets are lost. A
	// positive rate models a degraded period (time-varying capacity):
	// transmission continues at the reduced rate and nothing is dropped.
	DownRate units.BitRate
}

// Enabled reports whether the spec declares any churn at all.
func (o OutageSpec) Enabled() bool {
	return o.Kind != OutageNone && o.Up > 0 && o.Down > 0
}

// Hard reports whether the down phase is a full outage rather than a
// degraded-capacity period.
func (o OutageSpec) Hard() bool { return o.DownRate == 0 }

// Validate rejects specs that would drive a nonsensical process: negative
// durations or degraded rate, a kind with missing phase durations, or a
// disabled kind carrying stray parameters.
func (o OutageSpec) Validate() error {
	if o.Up < 0 || o.Down < 0 {
		return fmt.Errorf("outage durations must be non-negative (up=%s down=%s)", o.Up, o.Down)
	}
	if o.DownRate < 0 {
		return fmt.Errorf("outage down rate %v is negative", o.DownRate)
	}
	if o.Kind != OutageNone && (o.Up == 0 || o.Down == 0) {
		return fmt.Errorf("outage kind %s needs positive up and down durations (up=%s down=%s)", o.Kind, o.Up, o.Down)
	}
	if o.Kind == OutageNone && (o.Up != 0 || o.Down != 0 || o.DownRate != 0) {
		return fmt.Errorf("outage kind none must be the zero spec (up=%s down=%s rate=%v)", o.Up, o.Down, o.DownRate)
	}
	return nil
}

// String renders the spec compactly, e.g. "exp up=1s down=100ms" or
// "fixed up=2s down=200ms rate=10Mbps"; the zero spec renders as "none".
func (o OutageSpec) String() string {
	if !o.Enabled() {
		return "none"
	}
	s := fmt.Sprintf("%s up=%s down=%s", o.Kind, o.Up, o.Down)
	if !o.Hard() {
		s += " rate=" + o.DownRate.String()
	}
	return s
}

// SetLinkOutage declares a churn process on an existing link. Simulators
// consuming the graph drive the process; the graph itself only carries
// the declaration (Clone preserves it). It panics
// loudly on an unknown link or an invalid spec — both are
// construction-time programming errors.
func (g *Graph) SetLinkOutage(id LinkID, o OutageSpec) {
	g.mustLink(id, "SetLinkOutage")
	if err := o.Validate(); err != nil {
		panic(fmt.Sprintf("topo: SetLinkOutage(%d): %v", id, err))
	}
	g.links[id].Outage = o
}
