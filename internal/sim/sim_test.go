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
	c.Run()
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
	c.Run()
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
	c.Run()
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
	c.Run()
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
	c.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() false after Cancel")
	}
	// Double cancel and cancel of the zero Event must not panic.
	c.Cancel(e)
	c.Cancel(Event{})
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
	c.Run()
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

func TestStopInsideHandler(t *testing.T) {
	c := NewClock()
	count := 0
	c.At(ms(1), func() { count++; c.Stop() })
	c.At(ms(2), func() { count++ })
	c.Run()
	if count != 1 {
		t.Fatalf("executed %d events after Stop, want 1", count)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending %d, want 1", c.Pending())
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
	c.Run()
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

func TestTickerReset(t *testing.T) {
	c := NewClock()
	var fires []Time
	tk := c.NewTicker(ms(10), func() { fires = append(fires, c.Now()) })
	c.At(ms(25), func() { tk.Reset(ms(50)) })
	c.RunUntil(ms(130))
	tk.Stop()
	// Fires at 10, 20, then reset at 25 → 75, 125.
	want := []Time{ms(10), ms(20), ms(75), ms(125)}
	if len(fires) != len(want) {
		t.Fatalf("fires %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires %v, want %v", fires, want)
		}
	}
	if tk.Period() != ms(50) {
		t.Fatalf("period %v, want 50ms", tk.Period())
	}
}

// TestTickerResetFromOwnHandler resets a ticker inside its own handler: the
// reset schedules the next firing, and the handler's return must not
// schedule a second one.
func TestTickerResetFromOwnHandler(t *testing.T) {
	c := NewClock()
	var fires []Time
	var tk *Ticker
	tk = c.NewTicker(ms(10), func() {
		fires = append(fires, c.Now())
		if len(fires) == 1 {
			tk.Reset(ms(50))
		}
	})
	c.RunUntil(ms(160))
	want := []Time{ms(10), ms(60), ms(110), ms(160)}
	if len(fires) != len(want) {
		t.Fatalf("fires %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires %v, want %v", fires, want)
		}
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d after the run, want 1 (the firing at 210ms)", c.Pending())
	}
	tk.Stop()
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", c.Pending())
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
	c.Run()
	if count != 1000 {
		t.Fatalf("chain executed %d, want 1000", count)
	}
	if c.Now() != ms(999) {
		t.Fatalf("clock at %v, want 999ms", c.Now())
	}
}
