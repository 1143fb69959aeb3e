//go:build race

package eventlog

func init() { raceEnabled = true }
