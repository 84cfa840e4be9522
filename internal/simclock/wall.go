package simclock

import "time"

// Wall returns the Clock that reads the operating-system clock. It exists
// for serving processes (cmd/wsxd): components stay clock-abstracted —
// simulations and tests hand them a Virtual, the daemon hands them this —
// and the repo's determinism lint keeps wall-clock reads confined to this
// package.
func Wall() Clock { return wallClock{} }

type wallClock struct{}

// Now implements Clock on the real clock.
func (wallClock) Now() time.Time { return time.Now() }

// SleepWall blocks the calling goroutine on the operating-system clock.
// Like Wall, it exists for serving and load-driving processes
// (cmd/wsxload's open-loop pacer): simulation code never sleeps, and the
// determinism lint confines real sleeping to this seam.
func SleepWall(d time.Duration) { time.Sleep(d) }

// AfterWall returns a channel that receives once d has elapsed on the
// operating-system clock. It bounds a serving process's long polls
// (replica.Source's stream parks) through the same seam as SleepWall.
func AfterWall(d time.Duration) <-chan time.Time { return time.After(d) }
