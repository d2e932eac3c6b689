//go:build race

package expert

func init() { raceEnabled = true }
