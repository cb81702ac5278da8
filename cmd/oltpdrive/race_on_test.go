//go:build race

package main

// raceEnabled reports that this test binary was built with -race; TestSmoke
// then race-instruments the binaries it builds as well.
const raceEnabled = true
