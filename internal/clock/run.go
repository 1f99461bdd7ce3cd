//go:build !goexperiment.synctest

package clock

// Run is Join in a build without GOEXPERIMENT=synctest: f runs on the real clock.
func Run(f func()) error { return Join(f) }
