package sim

import (
	"testing"
	"time"
	"unsafe"
)

// poolCount is a Hook that counts the packets an engine hands out and
// the releases.
type poolCount struct{ handed, frees int64 }

func (c *poolCount) OnSchedule(time.Duration, int64) {}
func (c *poolCount) OnFire(time.Duration, int64)     {}
func (c *poolCount) OnAlloc(*Packet)                 { c.handed++ }
func (c *poolCount) OnFree(*Packet)                  { c.frees++ }

// countPool installs a poolCount on eng.
func countPool(eng *Engine) *poolCount {
	c := &poolCount{}
	eng.SetHook(c)
	return c
}

// stats returns eng's fresh packet allocations, its free-list reuses
// and its releases since countPool.
func (c *poolCount) stats(eng *Engine) (allocs, reuses, frees int64) {
	allocs = int64(len(eng.pool.all))
	return allocs, c.handed - allocs, c.frees
}

func TestPacketPoolRecycles(t *testing.T) {
	eng := &Engine{}
	pc := countPool(eng)
	p1 := eng.NewPacket()
	p1.Seq = 42
	p1.Retx = true
	p1.Release()
	p2 := eng.NewPacket()
	if p2 != p1 {
		t.Fatal("free list should hand back the released packet (LIFO)")
	}
	if p2.Seq != 0 || p2.Retx || p2.Path != nil || p2.Dest != nil {
		t.Errorf("recycled packet not zeroed: %+v", p2)
	}
	if !p2.Pooled() {
		t.Error("pooled packet must report Pooled")
	}
	allocs, reuses, frees := pc.stats(eng)
	if allocs != 1 || reuses != 1 || frees != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", allocs, reuses, frees)
	}
}

func TestPacketGenerationDetectsReuse(t *testing.T) {
	eng := &Engine{}
	p := eng.NewPacket()
	g0 := p.Generation()
	p.Release()
	q := eng.NewPacket() // same backing object, new generation
	if q != p {
		t.Fatal("expected recycled packet")
	}
	if q.Generation() == g0 {
		t.Error("generation must change across Release so stale holders can detect reuse")
	}
}

func TestPacketDoubleReleasePanics(t *testing.T) {
	eng := &Engine{}
	p := eng.NewPacket()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release must panic")
		}
	}()
	p.Release()
}

func TestLiteralPacketReleaseIsNoop(t *testing.T) {
	p := &Packet{Seq: 7}
	p.Release() // non-pooled: must be a harmless no-op
	p.Release()
	if p.Pooled() {
		t.Error("literal packet must not report Pooled")
	}
}

func TestPacketCloneIsDetached(t *testing.T) {
	eng := &Engine{}
	pc := countPool(eng)
	p := eng.NewPacket()
	p.Seq = 9
	cp := p.Clone()
	if cp == p || cp.Seq != 9 {
		t.Fatalf("clone = %+v", cp)
	}
	if cp.Pooled() {
		t.Error("clone must be detached from the pool")
	}
	cp.Release() // no-op
	p.Release()
	if pc.frees != 1 {
		t.Errorf("frees = %d, want 1 (clone release must not reach the pool)", pc.frees)
	}
}

// TestPoolReuseDeterministic pins the property parallel sweeps rely
// on: two identical runs recycle identical packet sequences, so pool
// state can never introduce cross-run nondeterminism.
func TestPoolReuseDeterministic(t *testing.T) {
	run := func() (allocs, reuses int64) {
		eng := &Engine{}
		pc := countPool(eng)
		sink := ReceiverFunc(func(p *Packet) { p.Release() })
		var lines [5]*DelayLine
		for i := range lines {
			lines[i] = eng.DelayLine(time.Duration(i) * time.Millisecond)
		}
		for i := 0; i < 50; i++ {
			p := eng.NewPacket()
			p.Dest = sink
			lines[i%5].Push(p)
			if i%3 == 0 {
				eng.Run(eng.Now() + 2*time.Millisecond)
			}
		}
		eng.Run(time.Second)
		a, r, _ := pc.stats(eng)
		return a, r
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Fatalf("pool nondeterminism: run1 %d/%d vs run2 %d/%d", a1, r1, a2, r2)
	}
	if r1 == 0 {
		t.Error("scenario should exercise reuse")
	}
}

// TestPacketSize pins the packet at 112 bytes, a malloc size class:
// one more word puts every fresh packet in the 128-byte class.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 112 {
		t.Fatalf("sim.Packet is %d bytes, want at most 112", n)
	}
}

// TestEngineFillsWholeCacheLines pins the Engine's size to a multiple
// of 64 bytes: adjust its padding when a field changes the size.
func TestEngineFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n%64 != 0 {
		t.Fatalf("sim.Engine is %d bytes, want a multiple of 64", n)
	}
}
