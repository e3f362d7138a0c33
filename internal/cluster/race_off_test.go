//go:build !race

package cluster

// raceEnabled reports whether the race detector, which allocates on its
// own account, is compiled in.
const raceEnabled = false
