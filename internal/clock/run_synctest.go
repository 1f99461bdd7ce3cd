//go:build goexperiment.synctest

package clock

import "testing/synctest"

// Run runs f in a synctest bubble, where a model sleep costs no wall time and
// ends exactly on time, until every goroutine of the bubble has exited (Join's
// rule, exact). f runs on a goroutine of its own (no t.Fatal in it) and ends
// in a close the caller waits on: Go 1.24's race detector misses Run's join.
func Run(f func()) error {
	done := make(chan struct{})
	synctest.Run(func() { defer close(done); f() })
	<-done
	return nil
}
