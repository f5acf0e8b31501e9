package telemetry

import (
	"sync"
	"testing"
	"time"
)

// flightClock is a deterministic monotonic clock advancing 1ms per read.
func flightClock() func() int64 {
	var ns int64
	return func() int64 {
		ns += int64(time.Millisecond)
		return ns
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	f.Record(FlightAdmitted, 0, 0, 0, 0, "")
	if f.Events() != nil {
		t.Fatal("nil flight must record nothing and return no events")
	}
}

func TestFlightRecordsOrderedStampedEvents(t *testing.T) {
	f := NewFlight(flightClock())
	f.Record(FlightAdmitted, 0, 0, 0, 0, "")
	f.Record(FlightQueueEnter, 0, 3, 0, 0, "")
	f.Record(FlightQueueExit, 2, 1, 0, 0, "")
	f.Record(FlightTerminal, 2, 0, 0, 0, "completed")
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 {
			if ev.WallNs <= evs[i-1].WallNs {
				t.Fatalf("wall stamps not strictly increasing under the fake clock: %d then %d",
					evs[i-1].WallNs, ev.WallNs)
			}
			if ev.Tick < evs[i-1].Tick {
				t.Fatalf("ticks went backwards: %d then %d", evs[i-1].Tick, ev.Tick)
			}
		}
	}
	if evs[0].Kind != FlightAdmitted || evs[3].Kind != FlightTerminal {
		t.Fatalf("kind order wrong: %v ... %v", evs[0].Kind, evs[3].Kind)
	}
	if evs[3].Note != "completed" || evs[1].A != 3 {
		t.Fatalf("event arguments lost: %+v", evs)
	}
	// Events hands out a copy: mutating it leaves the log intact.
	evs[0].Kind = FlightTerminal
	if f.Events()[0].Kind != FlightAdmitted {
		t.Fatal("Events must return a copy of the log")
	}
}

// TestFlightConcurrentRecording drives one flight from many goroutines and
// checks the log stays internally consistent (every event kept, gap-free seq,
// nondecreasing wall stamps at read time). Run under -race in CI.
func TestFlightConcurrentRecording(t *testing.T) {
	start := time.Now()
	f := NewFlight(func() int64 { return int64(time.Since(start)) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Record(FlightExecuted, int64(g), int64(i), 0, 0, "")
			}
		}(g)
	}
	wg.Wait()
	evs := f.Events()
	if len(evs) != 800 {
		t.Fatalf("recorded %d events, want 800", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, evs[i].Seq)
		}
		if evs[i].WallNs < evs[i-1].WallNs {
			t.Fatalf("wall stamp regressed: %d then %d", evs[i-1].WallNs, evs[i].WallNs)
		}
	}
}

func TestFlightKindStrings(t *testing.T) {
	kinds := []FlightKind{
		FlightAdmitted, FlightQueueEnter, FlightQueueExit, FlightEpochAssigned,
		FlightPlanned, FlightFaultCoincident, FlightExecuted, FlightDecodeVerdict,
		FlightRetryScheduled, FlightTerminal,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if FlightKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render unknown")
	}
}
