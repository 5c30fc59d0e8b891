//go:build race

package export

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and instrumentation allocates, so allocation counts do not
// hold.
const raceEnabled = true
