package probe

import (
	"net"
	"sync"
	"time"
)

// tokenBucket is a standard leaky-integrator rate limiter over the
// server's monotonic clock. Not self-locking: callers serialize.
type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// take refills at `rate` tokens/s up to `burst`, then spends n tokens
// if the bucket holds at least `floor + n`. The floor is how shedding
// is prioritized: low-value packets (new Hellos) are charged against a
// reserve that high-value packets (Data of admitted sessions) may
// drain to zero, so under sustained overload admission stops before
// admitted sessions are starved.
func (b *tokenBucket) take(now time.Duration, rate, burst, floor, n float64) bool {
	if b.last == 0 && b.tokens == 0 {
		b.tokens = burst
	}
	dt := (now - b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens < floor+n {
		return false
	}
	b.tokens -= n
	return true
}

// globalLimiter is the server-wide packets-per-second ceiling with
// prioritized shedding (see tokenBucket.take).
type globalLimiter struct {
	mu    sync.Mutex
	b     tokenBucket
	rate  float64
	burst float64
	floor float64 // reserve new-session admission cannot dip into
}

func newGlobalLimiter(pps, burst float64) *globalLimiter {
	if pps <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = pps / 4
		if burst < 64 {
			burst = 64
		}
	}
	return &globalLimiter{rate: pps, burst: burst, floor: burst / 4}
}

// admit spends one token; hello packets are additionally charged
// against the shedding reserve.
func (g *globalLimiter) admit(now time.Duration, hello bool) bool {
	if g == nil {
		return true
	}
	floor := 0.0
	if hello {
		floor = g.floor
	}
	g.mu.Lock()
	ok := g.b.take(now, g.rate, g.burst, floor, 1)
	g.mu.Unlock()
	return ok
}

// sourceLimiter enforces a per-source-IP packet rate ahead of session
// admission: one bucket map under one mutex. Buckets idle past the TTL
// are swept so a scanned address space cannot grow the map without
// bound.
type sourceLimiter struct {
	rate  float64
	burst float64
	ttl   time.Duration
	mu    sync.Mutex
	m     map[string]*tokenBucket
}

func newSourceLimiter(pps, burst float64, ttl time.Duration) *sourceLimiter {
	if pps <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 2 * pps
		if burst < 8 {
			burst = 8
		}
	}
	return &sourceLimiter{rate: pps, burst: burst, ttl: ttl, m: make(map[string]*tokenBucket)}
}

// key extracts the source IP (not port): a fleet of probes behind one
// NAT shares a budget, which is the abuse model the limiter targets.
func srcKey(addr *net.UDPAddr) string {
	if ip4 := addr.IP.To4(); ip4 != nil {
		return string(ip4)
	}
	return string(addr.IP)
}

// admit spends one token from addr's bucket.
func (l *sourceLimiter) admit(now time.Duration, addr *net.UDPAddr) bool {
	if l == nil {
		return true
	}
	key := srcKey(addr)
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.m[key]
	if b == nil {
		b = &tokenBucket{}
		l.m[key] = b
	}
	return b.take(now, l.rate, l.burst, 0, 1)
}

// sweep drops buckets idle past the TTL.
func (l *sourceLimiter) sweep(now time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, b := range l.m {
		if now-b.last > l.ttl {
			delete(l.m, k)
		}
	}
}

// size reports the tracked-source count (for the health view).
func (l *sourceLimiter) size() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}
