//go:build !race

package cli_test

const raceEnabled = false
