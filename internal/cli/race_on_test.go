//go:build race

package cli_test

// raceEnabled gates allocation-size guards: the race runtime changes
// allocation behaviour, so the byte counts only hold without it.
const raceEnabled = true
