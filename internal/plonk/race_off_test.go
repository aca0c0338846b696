//go:build !race

package plonk

const raceEnabled = false
