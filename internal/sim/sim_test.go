package sim

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestAtRunsInOrder(t *testing.T) {
	c := NewClock()
	var got []int
	c.At(ms(30), func() { got = append(got, 3) })
	c.At(ms(10), func() { got = append(got, 1) })
	c.At(ms(20), func() { got = append(got, 2) })
	for c.Step() {
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if c.Now() != ms(30) {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(ms(5), func() { got = append(got, i) })
	}
	for c.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at same instant reordered: %v", got)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	c := NewClock()
	var fired Time
	c.At(ms(10), func() {
		c.After(ms(5), func() { fired = c.Now() })
	})
	for c.Step() {
	}
	if fired != ms(15) {
		t.Fatalf("After fired at %v, want 15ms", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock()
	c.At(ms(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		c.At(ms(5), func() {})
	})
	for c.Step() {
	}
}

func TestNilHandlerPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	c.At(ms(1), nil)
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.At(ms(10), func() { fired = true })
	c.Cancel(e)
	if e.Pending() || c.Pending() != 0 {
		t.Errorf("after Cancel: event pending %v, clock pending %d", e.Pending(), c.Pending())
	}
	for c.Step() {
	}
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel and cancel of the zero Event change nothing.
	c.At(ms(20), func() {})
	c.Cancel(e)
	c.Cancel(Event{})
	if c.Pending() != 1 {
		t.Errorf("stale cancels left %d pending, want 1", c.Pending())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	c := NewClock()
	var got []int
	var evs []Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, c.At(ms(i+1), func() { got = append(got, i) }))
	}
	c.Cancel(evs[2])
	for c.Step() {
	}
	for _, v := range got {
		if v == 2 {
			t.Fatalf("canceled event executed: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4", len(got))
	}
}

func TestRunUntilHorizon(t *testing.T) {
	c := NewClock()
	var fired []Time
	for i := 1; i <= 5; i++ {
		i := i
		c.At(ms(i*10), func() { fired = append(fired, c.Now()) })
	}
	c.RunUntil(ms(25))
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if c.Now() != ms(25) {
		t.Fatalf("clock at %v, want horizon 25ms", c.Now())
	}
	c.RunUntil(ms(100))
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesToHorizonWhenIdle(t *testing.T) {
	c := NewClock()
	c.RunUntil(ms(50))
	if c.Now() != ms(50) {
		t.Fatalf("idle clock at %v, want 50ms", c.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	c := NewClock()
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestExecutedCounter(t *testing.T) {
	c := NewClock()
	for i := 1; i <= 7; i++ {
		c.At(ms(i), func() {})
	}
	for c.Step() {
	}
	if c.Executed() != 7 {
		t.Fatalf("Executed=%d, want 7", c.Executed())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := NewClock()
	var fires []Time
	tk := c.NewTicker(ms(10), func() { fires = append(fires, c.Now()) })
	c.RunUntil(ms(45))
	tk.Stop()
	if len(fires) != 4 {
		t.Fatalf("ticker fired %d times, want 4: %v", len(fires), fires)
	}
	for i, ft := range fires {
		if want := ms((i + 1) * 10); ft != want {
			t.Fatalf("fire %d at %v, want %v", i, ft, want)
		}
	}
}

func TestTickerStopInsideHandler(t *testing.T) {
	c := NewClock()
	count := 0
	var tk *Ticker
	tk = c.NewTicker(ms(10), func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	c.RunUntil(ms(200))
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3, want 3", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("non-positive ticker period did not panic")
		}
	}()
	c.NewTicker(0, func() {})
}

func TestPendingSkipsCanceled(t *testing.T) {
	c := NewClock()
	e1 := c.At(ms(1), func() {})
	c.At(ms(2), func() {})
	c.Cancel(e1)
	if c.Pending() != 1 {
		t.Fatalf("Pending=%d, want 1", c.Pending())
	}
}

func TestDeepNesting(t *testing.T) {
	// Events scheduling events: a chain of 1000 events must all execute
	// at strictly increasing times.
	c := NewClock()
	count := 0
	var next func()
	next = func() {
		count++
		if count < 1000 {
			c.After(ms(1), next)
		}
	}
	c.At(0, next)
	for c.Step() {
	}
	if count != 1000 {
		t.Fatalf("chain executed %d, want 1000", count)
	}
	if c.Now() != ms(999) {
		t.Fatalf("clock at %v, want 999ms", c.Now())
	}
}
