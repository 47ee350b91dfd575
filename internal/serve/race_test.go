//go:build race

package serve

// raceEnabled reports a race-detector build, which slows simulation about
// tenfold; the figures tests trim their work under it.
const raceEnabled = true
