package fixture

// Kind is the fixture's event vocabulary. KindOrphan deliberately has no
// kindNames entry; the README's table documents a kind that no longer
// exists (`gone`) and omits `stop`.
type Kind uint8

const (
	KindStart Kind = iota
	KindStop
	KindOrphan // want `eventsync: kind constant KindOrphan has no entry in the kindNames array`
)

var kindNames = [...]string{ // want `eventsync: stale event-table row in README\.md:\d+: "gone" is not a kind the package emits` `eventsync: kind "stop" is missing from the event table in README\.md`
	"start",
	"stop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}
