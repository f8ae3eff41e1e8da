//go:build !race

package static_test

const raceEnabled = false
