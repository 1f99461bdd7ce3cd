//go:build race

package master

// raceEnabled reports that this binary was built with the race detector,
// under which CPU-bound work runs several times slower: wall-clock bounds on
// it are skipped, the counts beside them still hold.
const raceEnabled = true
