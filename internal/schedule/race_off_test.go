//go:build !race

package schedule_test

const raceEnabled = false
