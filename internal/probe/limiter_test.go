package probe

import (
	"net"
	"testing"
	"time"
)

// TestTokenBucketRefill: the bucket starts full, drains one token per
// take, refills at the configured rate, and never exceeds the burst.
func TestTokenBucketRefill(t *testing.T) {
	var b tokenBucket
	const (
		rate  = 10.0 // tokens/s
		burst = 5.0
	)
	t0 := time.Millisecond
	for i := 0; i < 5; i++ {
		if !b.take(t0, rate, burst, 0, 1) {
			t.Fatalf("take %d refused with a full bucket", i)
		}
	}
	if b.take(t0, rate, burst, 0, 1) {
		t.Fatal("take succeeded on an empty bucket with no time elapsed")
	}
	// 100ms at 10/s refills exactly one token.
	if !b.take(t0+100*time.Millisecond, rate, burst, 0, 1) {
		t.Fatal("refill after 100ms did not produce a token")
	}
	if b.take(t0+100*time.Millisecond, rate, burst, 0, 1) {
		t.Fatal("got two tokens from a one-token refill")
	}
	// A long idle period caps at the burst, not rate*dt.
	later := t0 + time.Hour
	for i := 0; i < 5; i++ {
		if !b.take(later, rate, burst, 0, 1) {
			t.Fatalf("take %d refused after a full refill", i)
		}
	}
	if b.take(later, rate, burst, 0, 1) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestTokenBucketFloor: a take with a floor cannot drain the reserve,
// while a floorless take on the same bucket can.
func TestTokenBucketFloor(t *testing.T) {
	var b tokenBucket
	const burst, floor = 4.0, 2.0
	t0 := time.Millisecond
	if !b.take(t0, 0, burst, floor, 1) || !b.take(t0, 0, burst, floor, 1) {
		t.Fatal("floored takes refused above the reserve")
	}
	if b.take(t0, 0, burst, floor, 1) {
		t.Fatal("floored take dipped into the reserve")
	}
	if !b.take(t0, 0, burst, 0, 1) || !b.take(t0, 0, burst, 0, 1) {
		t.Fatal("floorless take refused the reserve")
	}
	if b.take(t0, 0, burst, 0, 1) {
		t.Fatal("take succeeded on a fully drained bucket")
	}
}

// TestGlobalLimiterPrioritizesData: at the global ceiling, Hellos stop
// being admitted while Data of admitted sessions still passes — the
// prioritized-shedding contract.
func TestGlobalLimiterPrioritizesData(t *testing.T) {
	g := newGlobalLimiter(10, 8) // burst 8, hello reserve 2
	now := time.Millisecond
	hellos := 0
	for g.admit(now, true) {
		hellos++
		if hellos > 100 {
			t.Fatal("hello admission never hit the reserve")
		}
	}
	if hellos != 6 {
		t.Fatalf("admitted %d hellos before the reserve, want 6 (burst 8 - floor 2)", hellos)
	}
	data := 0
	for g.admit(now, false) {
		data++
		if data > 100 {
			t.Fatal("data admission never drained the bucket")
		}
	}
	if data != 2 {
		t.Fatalf("admitted %d data packets from the reserve, want 2", data)
	}
	// Nil limiter (feature disabled) admits everything.
	var off *globalLimiter
	if !off.admit(now, true) || !off.admit(now, false) {
		t.Fatal("disabled global limiter refused a packet")
	}
}

// TestSourceLimiterIsolatesSources: one source exhausting its bucket
// must not affect another, and the sweep forgets idle sources.
func TestSourceLimiterIsolatesSources(t *testing.T) {
	l := newSourceLimiter(5, 3, 50*time.Millisecond)
	a := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 1111}
	a2 := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 2222} // same IP, new port
	b := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 2), Port: 1111}

	now := time.Millisecond
	for i := 0; i < 3; i++ {
		if !l.admit(now, a) {
			t.Fatalf("source A take %d refused under burst", i)
		}
	}
	if l.admit(now, a) {
		t.Fatal("source A admitted past its burst")
	}
	// The limit is per IP, not per socket: a new port shares the bucket.
	if l.admit(now, a2) {
		t.Fatal("same IP on a new port escaped the source limit")
	}
	if !l.admit(now, b) {
		t.Fatal("source B starved by source A's exhaustion")
	}
	if got := l.size(); got != 2 {
		t.Fatalf("tracked sources = %d, want 2", got)
	}

	// Idle past the TTL, the sweep forgets both; A starts fresh.
	later := now + 100*time.Millisecond
	l.sweep(later)
	if got := l.size(); got != 0 {
		t.Fatalf("tracked sources after sweep = %d, want 0", got)
	}
	if !l.admit(later, a) {
		t.Fatal("swept source not readmitted with a fresh bucket")
	}

	var off *sourceLimiter
	if !off.admit(now, a) {
		t.Fatal("disabled source limiter refused a packet")
	}
	off.sweep(now) // must not panic
	if off.size() != 0 {
		t.Fatal("disabled source limiter reports tracked sources")
	}
}
