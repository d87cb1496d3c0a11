//go:build !race

package pervasivegrid_test

const raceEnabled = false
