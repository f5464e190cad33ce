package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestFlightRecorderRetainsTail(t *testing.T) {
	fr := NewFlightRecorder(4)
	want := emitAll(fr) // 12 events through a 4-slot ring
	events, dropped := fr.Snapshot()
	if len(events) != 4 {
		t.Fatalf("retained %d events want 4", len(events))
	}
	if dropped != int64(len(want)-4) {
		t.Fatalf("dropped %d want %d", dropped, len(want)-4)
	}
	for i, ev := range events {
		if ev != want[len(want)-4+i] {
			t.Fatalf("event %d = %+v want %+v", i, ev, want[len(want)-4+i])
		}
	}
	if fr.Total() != int64(len(want)) {
		t.Fatalf("Total %d want %d", fr.Total(), len(want))
	}
	// The most recent event is the run_end.
	if _, ok := events[3].V.(RunEnd); !ok {
		t.Fatalf("newest event %+v is not the run_end", events[3])
	}

	fr.Reset()
	if events, dropped := fr.Snapshot(); len(events) != 0 || dropped != 0 {
		t.Fatalf("after Reset: %d events, %d dropped", len(events), dropped)
	}
}

func TestFlightRecorderUnderfilled(t *testing.T) {
	fr := NewFlightRecorder(0) // default capacity, far above one run
	want := emitAll(fr)
	events, dropped := fr.Snapshot()
	if dropped != 0 || len(events) != len(want) {
		t.Fatalf("got %d events (%d dropped) want %d (0)", len(events), dropped, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestFlightRecorderConcurrentRuns(t *testing.T) {
	// Two runs sharing one recorder, per the sink contract; snapshots taken
	// mid-flight must stay internally consistent (no torn events).
	fr := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				emitAll(fr)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			events, _ := fr.Snapshot()
			for _, ev := range events {
				if ev.Kind == "" || ev.V == nil {
					t.Error("torn event in snapshot")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if want := int64(2 * 50 * len(emitAll(Nop{}))); fr.Total() != want {
		t.Fatalf("Total %d want %d", fr.Total(), want)
	}
}

// TestFlightRecorderWraparoundConcurrentWriters hammers a small ring from
// many writers so every slot is overwritten hundreds of times, and checks
// the invariants wraparound must preserve: accounting (dropped + retained
// equals the total at snapshot time), no torn events, per-writer arrival
// order inside every snapshot, and a full ring holding exactly the last
// cap events once the writers stop.
func TestFlightRecorderWraparoundConcurrentWriters(t *testing.T) {
	const (
		cap       = 8
		writers   = 4
		perWriter = 500
	)
	fr := NewFlightRecorder(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				// Writer and sequence ride in one payload, so a snapshot can
				// prove both integrity and per-writer order. Alternate the
				// Recorder path with the Span path: both share the ring.
				if seq%2 == 0 {
					fr.Counter(Counter{Name: "writer", Value: int64(w*perWriter + seq)})
				} else {
					fr.Span(Span{Endpoint: "writer", Status: w*perWriter + seq})
				}
			}
		}(w)
	}

	snapErrs := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			events, dropped := fr.Snapshot()
			if len(events) > cap {
				snapErrs <- fmt.Errorf("snapshot holds %d events, ring cap %d", len(events), cap)
				return
			}
			lastSeq := make(map[int]int)
			for _, ev := range events {
				w, seq, err := decodeWraparoundEvent(ev)
				if err != nil {
					snapErrs <- err
					return
				}
				if prev, ok := lastSeq[w]; ok && seq <= prev {
					snapErrs <- fmt.Errorf("writer %d out of order: %d after %d", w, seq, prev)
					return
				}
				lastSeq[w] = seq
			}
			if dropped < 0 {
				snapErrs <- fmt.Errorf("negative dropped count %d", dropped)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	select {
	case err := <-snapErrs:
		t.Fatal(err)
	default:
	}

	total := int64(writers * perWriter)
	if fr.Total() != total {
		t.Fatalf("Total %d want %d", fr.Total(), total)
	}
	events, dropped := fr.Snapshot()
	if int64(len(events)) != cap || dropped != total-cap {
		t.Fatalf("final snapshot: %d events (%d dropped), want %d (%d)", len(events), dropped, cap, total-cap)
	}
	for _, ev := range events {
		if _, _, err := decodeWraparoundEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeWraparoundEvent recovers (writer, seq) from an event emitted by the
// wraparound test, failing on torn or foreign payloads.
func decodeWraparoundEvent(ev Event) (writer, seq int, err error) {
	var packed int
	switch v := ev.V.(type) {
	case Counter:
		if ev.Kind != KindCounter || v.Name != "writer" {
			return 0, 0, fmt.Errorf("torn counter event %+v", ev)
		}
		packed = int(v.Value)
	case Span:
		if ev.Kind != KindSpan || v.Endpoint != "writer" {
			return 0, 0, fmt.Errorf("torn span event %+v", ev)
		}
		packed = v.Status
	default:
		return 0, 0, fmt.Errorf("foreign event %+v in ring", ev)
	}
	return packed / 500, packed % 500, nil
}
