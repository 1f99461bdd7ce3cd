//go:build !race

package master

const raceEnabled = false
