//go:build !goexperiment.synctest

package chunkserver

// exactClock reports whether clock.Test runs a test body in a bubble, where
// model time is exact: not in a build without the synctest experiment.
const exactClock = false
