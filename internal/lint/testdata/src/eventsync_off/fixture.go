// Package fixture is out of eventsync scope: no //distlint:events
// directive and not internal/obs, so the skew below is not a finding.
package fixture

type Kind uint8

const (
	KindStart Kind = iota
	KindLost
)

var kindNames = [...]string{"start"}
