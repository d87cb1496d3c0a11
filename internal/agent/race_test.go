//go:build race

package agent

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are not reproducible under it.
const raceEnabled = true
