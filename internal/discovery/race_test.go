//go:build race

package discovery

// raceEnabled: the race detector changes what escapes and allocates, so
// allocation counts are not reproducible under it.
const raceEnabled = true
