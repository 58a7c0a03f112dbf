package fixture

// Kind is the fixture's event vocabulary. KindOrphan deliberately has no
// kindNames entry; the README's table documents a kind that no longer
// exists (`gone`), omits `stop`, and gives kick-level `tick` level EA.
type Kind uint8

const (
	KindStart Kind = iota
	KindStop
	KindTick
	KindOrphan // want `eventsync: kind constant KindOrphan has no entry in the kindNames array`
)

var kindNames = [...]string{ // want `eventsync: event-table row in README\.md:\d+ gives "tick" level "EA"; Kind\.EALevel makes it "kick"` `eventsync: stale event-table row in README\.md:\d+: "gone" is not a kind the package emits` `eventsync: kind "stop" is missing from the event table in README\.md`
	"start",
	"stop",
	"tick",
}

// EALevel reports whether the kind is collected; ticks are kick-level.
func (k Kind) EALevel() bool {
	switch k {
	case KindTick:
		return false
	}
	return true
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}
