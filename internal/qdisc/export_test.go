package qdisc

import "math/bits"

// Limit returns the configured byte limit.
func (d *DropTail) Limit() int { return d.limit }

// ActiveUsers returns the number of users with queued packets.
func (u *UserIsolation) ActiveUsers() int {
	n := len(u.parked)
	for _, w := range u.active {
		n += bits.OnesCount64(w)
	}
	return n
}
