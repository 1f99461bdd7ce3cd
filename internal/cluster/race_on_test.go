//go:build race

package cluster

// raceEnabled reports that this binary was built with the race detector,
// whose bookkeeping slows every goroutine several times over.
const raceEnabled = true
