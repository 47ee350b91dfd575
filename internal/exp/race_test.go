//go:build race

package exp

// raceEnabled reports a race-detector build, which slows simulation about
// tenfold; the heaviest test grids shrink under it.
const raceEnabled = true
