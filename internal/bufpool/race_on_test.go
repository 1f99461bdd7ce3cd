//go:build race

package bufpool

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool drops a quarter of its Puts at random: a free list
// may then be collected after a single collection.
const raceEnabled = true
