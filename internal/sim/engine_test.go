package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	eng := &Engine{}
	var order []int
	eng.Schedule(2*time.Second, func() { order = append(order, 2) })
	eng.Schedule(1*time.Second, func() { order = append(order, 1) })
	eng.Schedule(3*time.Second, func() { order = append(order, 3) })
	eng.Run(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if eng.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := &Engine{}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(time.Second, func() { order = append(order, i) })
	}
	eng.Run(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	eng := &Engine{}
	ran := false
	eng.Schedule(-5*time.Second, func() { ran = true })
	eng.Run(0)
	if !ran {
		t.Error("negative-delay event should run at now")
	}
	if eng.Now() != 0 {
		t.Errorf("clock moved backwards: %v", eng.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	eng := &Engine{}
	ran := false
	tm := eng.Schedule(time.Second, func() { ran = true })
	tm.Cancel()
	tm.Cancel() // double cancel is a no-op
	eng.Run(5 * time.Second)
	if ran {
		t.Error("cancelled event ran")
	}
	var zero Timer
	zero.Cancel() // the zero Timer is inert
	if zero.Active() {
		t.Error("zero Timer reports active")
	}
}

func TestEngineRunStopsAtLimit(t *testing.T) {
	eng := &Engine{}
	var ran []time.Duration
	eng.Schedule(time.Second, func() { ran = append(ran, eng.Now()) })
	eng.Schedule(5*time.Second, func() { ran = append(ran, eng.Now()) })
	eng.Run(3 * time.Second)
	if len(ran) != 1 {
		t.Fatalf("ran %d events, want 1", len(ran))
	}
	if eng.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", eng.Now())
	}
	// The later event still fires on a subsequent Run.
	eng.Run(6 * time.Second)
	if len(ran) != 2 || ran[1] != 5*time.Second {
		t.Errorf("second run = %v", ran)
	}
}

// TestRunStopsAtUntilPastCancelledRoot pins Run's bound when the
// earliest queued event is a cancelled one due before until: reaping
// it must not let the live event behind it, due after until, run.
func TestRunStopsAtUntilPastCancelledRoot(t *testing.T) {
	eng := &Engine{}
	a := eng.Schedule(10*time.Millisecond, func() { t.Error("cancelled event A ran") })
	bRan := false
	eng.Schedule(20*time.Millisecond, func() { bRan = true })
	a.Cancel()
	eng.Run(15 * time.Millisecond)
	if bRan {
		t.Error("event B, due at 20ms, ran in Run(15ms)")
	}
	if eng.Now() != 15*time.Millisecond {
		t.Errorf("Now = %v, want 15ms", eng.Now())
	}
	eng.Run(20 * time.Millisecond)
	if !bRan {
		t.Error("event B did not run in Run(20ms)")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	eng := &Engine{}
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			eng.Schedule(time.Second, recurse)
		}
	}
	eng.Schedule(time.Second, recurse)
	eng.Run(time.Minute)
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if eng.Processed != 5 {
		t.Errorf("Processed = %d, want 5", eng.Processed)
	}
}

func TestEngineStep(t *testing.T) {
	eng := &Engine{}
	if eng.Step() {
		t.Error("Step on empty queue should return false")
	}
	eng.Schedule(time.Second, func() {})
	if !eng.Step() {
		t.Error("Step should execute the pending event")
	}
	if eng.Now() != time.Second {
		t.Errorf("Now = %v", eng.Now())
	}
}

func TestEngineScheduleAtPastClamped(t *testing.T) {
	eng := &Engine{}
	eng.Schedule(2*time.Second, func() {
		// From inside an event at t=2s, scheduling at t=1s clamps to now.
		eng.ScheduleAt(time.Second, func() {
			if eng.Now() != 2*time.Second {
				t.Errorf("past-scheduled event ran at %v", eng.Now())
			}
		})
	})
	eng.Run(5 * time.Second)
}

// TestTimerStaleAfterFireDoesNotKillRecycledSlot is the regression
// test for the timer aliasing hazard: a handle kept after its event
// fired must not cancel a NEW event that recycled the same slot.
func TestTimerStaleAfterFireDoesNotKillRecycledSlot(t *testing.T) {
	eng := &Engine{}
	fired1, fired2 := false, false
	tm1 := eng.Schedule(time.Second, func() { fired1 = true })
	if !eng.Step() || !fired1 {
		t.Fatal("first event did not fire")
	}
	// The second schedule recycles the first event's slot (LIFO free
	// list, single slot in the table).
	eng.Schedule(time.Second, func() { fired2 = true })
	tm1.Cancel() // stale handle: must be inert
	if tm1.Active() {
		t.Error("stale handle reports active")
	}
	eng.Run(time.Minute)
	if !fired2 {
		t.Fatal("stale Cancel killed the event that recycled the slot")
	}
}

// TestTimerStaleAfterResetIsInert covers cancel-after-Reset: handles
// issued before a Reset must not touch events scheduled after it, even
// when the slot indices collide.
func TestTimerStaleAfterResetIsInert(t *testing.T) {
	eng := &Engine{}
	ranOld := false
	old := eng.Schedule(time.Second, func() { ranOld = true })
	eng.Reset()
	if old.Active() {
		t.Error("pre-reset handle reports active")
	}
	ranNew := false
	eng.Schedule(time.Second, func() { ranNew = true }) // recycles old's slot
	old.Cancel()                                        // must be a no-op
	eng.Run(time.Minute)
	if ranOld {
		t.Error("reset-dropped event ran")
	}
	if !ranNew {
		t.Fatal("stale pre-reset Cancel killed a post-reset event")
	}
}

// TestTimerCancelFromInsideHandler cancels a later event from inside an
// earlier one, including the self-referential case of a handler
// cancelling its own (already inert) timer.
func TestTimerCancelFromInsideHandler(t *testing.T) {
	eng := &Engine{}
	var self Timer
	other := eng.Schedule(2*time.Second, func() { t.Error("cancelled event ran") })
	self = eng.Schedule(time.Second, func() {
		self.Cancel() // own event is firing: must be a no-op
		other.Cancel()
	})
	eng.Run(time.Minute)
	if eng.Processed != 1 {
		t.Errorf("Processed = %d, want 1", eng.Processed)
	}
}

// TestEngineResetRewinds verifies Reset drops pending work and rewinds
// the clock so a fresh run is deterministic.
func TestEngineResetRewinds(t *testing.T) {
	eng := &Engine{}
	eng.Schedule(time.Second, func() {})
	eng.Run(time.Second)
	eng.Schedule(time.Second, func() { t.Error("dropped event ran") })
	eng.Reset()
	if eng.Now() != 0 || eng.Pending() != 0 || eng.Processed != 0 {
		t.Fatalf("Reset left now=%v pending=%d processed=%d", eng.Now(), eng.Pending(), eng.Processed)
	}
	ran := false
	eng.Schedule(time.Second, func() { ran = true })
	eng.Run(2 * time.Second)
	if !ran {
		t.Fatal("post-reset event did not run")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		eng := &Engine{}
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			// Many events at colliding times.
			eng.Schedule(time.Duration(i%7)*time.Millisecond, func() { order = append(order, i) })
		}
		eng.Run(time.Second)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEngineResetReclaimsSlots checks Reset drains every pending event
// and hands its slot back, leaving stale Timer handles inert.
func TestEngineResetReclaimsSlots(t *testing.T) {
	eng := &Engine{}
	var tms []Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, eng.Schedule(time.Duration(i)*time.Millisecond, func() { t.Fatal("dropped event fired") }))
	}
	eng.Reset()
	if eng.Pending() != 0 || len(eng.free) != len(eng.slots) {
		t.Fatalf("Reset left %d pending, %d of %d slots free", eng.Pending(), len(eng.free), len(eng.slots))
	}
	if err := eng.verifyHeap(); err != nil {
		t.Fatal(err)
	}
	fired := false
	eng.Schedule(time.Millisecond, func() { fired = true })
	for _, tm := range tms {
		tm.Cancel() // stale: must not touch the new event
	}
	for eng.Step() {
	}
	if !fired {
		t.Fatal("post-reset event was disturbed by a stale cancel")
	}
}

// TestEngineDenseSchedulingAllocs checks that scheduling and draining
// a dense population (256 events over 77ms) allocates nothing once the
// slot table and the heap have grown to it.
func TestEngineDenseSchedulingAllocs(t *testing.T) {
	eng := &Engine{}
	fn := func() {}
	cycle := func() {
		for i := 0; i < 256; i++ {
			eng.Schedule(time.Duration(i)*300*time.Microsecond, fn)
		}
		for eng.Step() {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("dense scheduling allocates %.1f times per cycle, want 0", allocs)
	}
}
