//go:build race

package bufpool

func init() { raceEnabled = true }
