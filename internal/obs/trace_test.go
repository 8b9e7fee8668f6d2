package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRingGrowThenWrap drives one trace across both regimes — geometric
// growth toward cap, then overwrite-oldest — and checks the retained
// window and the dropped counter agree at every step.
func TestRingGrowThenWrap(t *testing.T) {
	const capacity = 20
	tr := NewTrace(capacity)
	for i := 0; i < 100; i++ {
		tr.Record(Event{Kind: EvChunkGranted, Chunk: i})
		got, dropped := tr.Snapshot()
		wantLen, wantDropped := i+1, uint64(0)
		if i+1 > capacity {
			wantLen, wantDropped = capacity, uint64(i+1-capacity)
		}
		if len(got) != wantLen || dropped != wantDropped {
			t.Fatalf("after %d records: %d retained (want %d), %d dropped (want %d)",
				i+1, len(got), wantLen, dropped, wantDropped)
		}
		// The retained window is always the most recent events, in order.
		for k, e := range got {
			if want := i + 1 - wantLen + k; e.Chunk != want {
				t.Fatalf("after %d records: event %d is chunk %d, want %d", i+1, k, e.Chunk, want)
			}
		}
	}
}

func TestRingSmallCapNeverOverallocates(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvChunkGranted, Chunk: i})
	}
	if len(tr.buf) != 3 {
		t.Fatalf("backing array grew to %d for cap 3", len(tr.buf))
	}
	got, dropped := tr.Snapshot()
	if len(got) != 3 || got[0].Chunk != 7 || got[2].Chunk != 9 || dropped != 7 {
		t.Fatalf("got %v, dropped %d", got, dropped)
	}
}

// TestTraceConcurrentRecordSnapshot hammers one Trace from writer and
// reader goroutines at once; under -race this is the data-race check for
// the ring the HTTP events handler reads while the reducer writes.
func TestTraceConcurrentRecordSnapshot(t *testing.T) {
	tr := NewTrace(64)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Event{Kind: EvChunkCompleted, Chunk: w*perWriter + i})
			}
		}(w)
	}
	var rg sync.WaitGroup
	for rdr := 0; rdr < 2; rdr++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				evs, dropped := tr.Snapshot()
				if len(evs)+int(dropped) > writers*perWriter {
					t.Errorf("snapshot accounts for %d events, only %d recorded",
						len(evs)+int(dropped), writers*perWriter)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	evs, dropped := tr.Snapshot()
	if len(evs) != 64 || int(dropped) != writers*perWriter-64 {
		t.Fatalf("final state: %d retained, %d dropped", len(evs), dropped)
	}
}

func TestParseEventKind(t *testing.T) {
	for k := EvSubmitted; k <= EvCanceled; k++ {
		got, ok := ParseEventKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseEventKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseEventKind("no-such-kind"); ok {
		t.Fatal("ParseEventKind accepted garbage")
	}
	if _, ok := ParseEventKind(""); ok {
		t.Fatal("ParseEventKind accepted empty string")
	}
}

// TestSpansRingAndNilSafety: a span rides its chunk-completed event, so
// the span view keeps what the event ring keeps and counts what it
// overwrote, whatever the kind of the overwritten events.
func TestSpansRingAndNilSafety(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Record(Event{Kind: EvChunkCompleted, Chunk: 1, Span: &Span{Chunk: 1}}) // must not panic
	if sps, dropped := nilTrace.Spans(); sps != nil || dropped != 0 {
		t.Fatalf("nil Trace spans: %v, %d", sps, dropped)
	}

	tr := NewTrace(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		tr.Record(Event{Kind: EvChunkCompleted, Chunk: i, Worker: "w", Span: &Span{
			Chunk: i, Worker: "w", Granted: base, Queue: time.Duration(i) * time.Millisecond}})
	}
	sps, dropped := tr.Spans()
	if len(sps) != 4 || dropped != 2 {
		t.Fatalf("got %d spans, %d dropped", len(sps), dropped)
	}
	if sps[0].Chunk != 2 || sps[3].Chunk != 5 || sps[3].Queue != 5*time.Millisecond {
		t.Fatalf("span window wrong: %+v", sps)
	}

	// Events without a span (grants, a completion with no trustworthy
	// grant stamp) are not spans, but they still push spans out.
	tr.Record(Event{Kind: EvChunkGranted, Chunk: 6})
	tr.Record(Event{Kind: EvChunkCompleted, Chunk: 6})
	sps, dropped = tr.Spans()
	if len(sps) != 2 || dropped != 4 || sps[0].Chunk != 4 || sps[1].Chunk != 5 {
		t.Fatalf("after two span-less events: %+v, %d dropped", sps, dropped)
	}

	if NewTrace(0) == nil || NewTrace(-1) == nil {
		t.Fatal("NewTrace must default non-positive capacities")
	}
}
