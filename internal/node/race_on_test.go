//go:build race

package node

// raceEnabled reports whether the race detector, which allocates on its
// own account, is compiled in.
const raceEnabled = true
