package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindNamesAndLevels(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
	for _, k := range []Kind{KindKickAccepted, KindKickReverted, KindLKImprove, KindPerturb, KindIteration} {
		if k.EALevel() {
			t.Fatalf("%v must be kick-level", k)
		}
	}
	for _, k := range []Kind{KindImprove, KindImproveReceived, KindRestart, KindBroadcastSent, KindSnapshot} {
		if !k.EALevel() {
			t.Fatalf("%v must be EA-level", k)
		}
	}
}

func TestMemorySink(t *testing.T) {
	m := NewMemorySink()
	m.Emit(Event{Kind: KindRestart, Node: 1})
	m.Emit(Event{Kind: KindImprove, Node: 2, Value: 42})
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	events := m.Events()
	events[0].Node = 99 // must not alias internal storage
	if m.Events()[0].Node != 1 {
		t.Fatal("Events() returned aliased slice")
	}
}

func TestFilterAndMulti(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	s := Multi(Filter(a, Kind.EALevel), b)
	s.Emit(Event{Kind: KindKickAccepted})
	s.Emit(Event{Kind: KindRestart})
	if a.Len() != 1 {
		t.Fatalf("filtered sink got %d events, want 1", a.Len())
	}
	if b.Len() != 2 {
		t.Fatalf("unfiltered sink got %d events, want 2", b.Len())
	}
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Fatal("empty Multi must collapse to Nop")
	}
	if Multi(a) != Sink(a) {
		t.Fatal("single-sink Multi must collapse to the sink itself")
	}
}

func TestRecorderCountersAndBest(t *testing.T) {
	sink := NewMemorySink()
	r := NewRecorder(2, sink)
	r.SetBest(100)
	r.Record(KindIteration, 1, -1)
	r.Record(KindKickAccepted, 95, -1)
	r.Record(KindKickReverted, 0, -1)
	r.Record(KindLKImprove, 90, -1)
	r.Record(KindPerturb, 3, -1)
	r.Record(KindPerturbLevel, 2, -1)
	r.Record(KindRestart, 0, -1)
	r.Record(KindBroadcastSent, 90, -1)
	r.Record(KindBroadcastReceived, 88, 1)
	r.Record(KindImproveReceived, 88, 1)
	r.Record(KindImprove, 85, -1)
	r.Record(KindOptimum, 85, -1)

	s := r.Snapshot()
	if s.Node != 2 || s.Iterations != 1 || s.Kicks != 2 || s.KickAccepts != 1 ||
		s.Improvements != 1 || s.Perturbations != 3 || s.Restarts != 1 ||
		s.Broadcasts != 1 || s.Received != 1 || s.Accepted != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.BestLength != 85 {
		t.Fatalf("best = %d, want 85", s.BestLength)
	}
	r.SetBest(200) // worse: must not raise best
	if r.Best() != 85 {
		t.Fatalf("best raised to %d", r.Best())
	}
	events := sink.Events()
	if len(events) != 12 {
		t.Fatalf("emitted %d events, want 12", len(events))
	}
	for _, e := range events {
		if e.Node != 2 {
			t.Fatalf("event node = %d, want 2", e.Node)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	for k := Kind(0); k < numKinds; k++ {
		r.Record(k, 1, 0)
	}
	r.SetBest(1)
	if r.Best() != 0 || r.Elapsed() != 0 {
		t.Fatal("nil recorder must read as zero")
	}
	if r.Snapshot().Node != -1 {
		t.Fatal("nil recorder snapshot must be node -1")
	}
}

func TestObserverCollectsAcrossNodes(t *testing.T) {
	extra := NewMemorySink()
	o := NewObserver(3, extra)
	o.Recorder(0).Record(KindKickAccepted, 50, -1) // kick-level: extra only
	o.Recorder(0).Record(KindImprove, 50, -1)
	o.Recorder(1).Record(KindImproveReceived, 50, 0)
	o.Recorder(2).Record(KindRestart, 0, -1)

	events := o.Events()
	if len(events) != 3 {
		t.Fatalf("collector has %d events, want 3 (kick-level excluded)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events not sorted by offset")
		}
	}
	if extra.Len() != 4 {
		t.Fatalf("extra sink got %d events, want all 4", extra.Len())
	}
	if o.BestLength() != 50 {
		t.Fatalf("best = %d, want 50", o.BestLength())
	}
	counters := o.Counters()
	if len(counters) != 3 || counters[1].Accepted != 1 {
		t.Fatalf("counters = %+v", counters)
	}
	if best := o.Snapshot(); best != 50 {
		t.Fatalf("snapshot best = %d, want 50", best)
	}
	snaps := 0
	for _, e := range o.Events() {
		if e.Kind == KindSnapshot {
			snaps++
			if e.Node != -1 {
				t.Fatalf("snapshot node = %d, want -1", e.Node)
			}
		}
	}
	if snaps != 1 {
		t.Fatalf("found %d snapshot events, want 1", snaps)
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Recorder(0) != nil {
		t.Fatal("nil observer must hand out nil recorders")
	}
	if o.Nodes() != 0 || o.BestLength() != 0 || o.Snapshot() != 0 {
		t.Fatal("nil observer must read as zero")
	}
	if o.Events() != nil || o.Counters() != nil {
		t.Fatal("nil observer must return nil slices")
	}
}

// TestConcurrentRecorders exercises the layer the way a cluster does: many
// node goroutines hammering recorders that share one collector. Run under
// -race this validates the locking story.
func TestConcurrentRecorders(t *testing.T) {
	o := NewObserver(8, NewMemorySink())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(r *Recorder) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Record(KindKickAccepted, int64(1000-j), -1)
				r.Record(KindLKImprove, int64(1000-j), -1)
				if j%100 == 0 {
					r.Record(KindBroadcastSent, int64(1000-j), -1)
				}
			}
		}(o.Recorder(i))
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() { // concurrent reader, as a metrics endpoint would be
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.BestLength()
				o.Counters()
				o.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	for _, s := range o.Counters() {
		if s.Kicks != 1000 || s.Improvements != 1000 || s.Broadcasts != 10 {
			t.Fatalf("counters lost updates: %+v", s)
		}
	}
	if o.BestLength() != 1 {
		t.Fatalf("best = %d, want 1", o.BestLength())
	}
}

// In-node workers share one recorder, so concurrent best updates
// (LKImprove, SetBest) must never overwrite a lower best with a higher
// one. Each trial races the writers' final, lowest records.
func TestSharedRecorderBestIsMinimum(t *testing.T) {
	const writers, perWriter, trials = 8, 64, 2000
	for trial := 0; trial < trials; trial++ {
		r := NewRecorder(0, nil)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := perWriter; j >= 1; j-- {
					r.SetBest(int64(j*writers + g)) // distinct across writers
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got, want := r.Best(), int64(writers); got != want {
			t.Fatalf("trial %d: Best() = %d, want the minimum recorded length %d", trial, got, want)
		}
	}
}

// TestCountersJSONGolden pins the counter JSON that -metrics serves: every
// field name, node and best_length present even when zero, and omitempty
// on exactly the eight iteration/group/wire counters. A renamed or
// retagged field fails here.
func TestCountersJSONGolden(t *testing.T) {
	o := NewObserver(2, nil)
	r := o.Recorder(1)
	r.Record(KindKickAccepted, 90, -1)  // kicks 1, kick_accepts 1
	r.Record(KindKickReverted, 0, -1)   // kicks 2
	r.Record(KindLKImprove, 80, -1)     // improvements 1, best_length 80
	r.Record(KindPerturb, 3, -1)        // perturbations 3
	r.Record(KindRestart, 0, -1)        // restarts 1
	r.Record(KindBroadcastSent, 80, -1) // broadcasts_sent 1
	for i := 0; i < 2; i++ {
		r.Record(KindBroadcastReceived, 85, 0) // broadcasts_received 2
	}
	r.Record(KindImproveReceived, 70, 0) // broadcasts_accepted 1, best_length 70
	r.Record(KindMsgDropped, 60, 0)      // msg_drops 1
	r.Record(KindIteration, 1, -1)       // iterations 1
	r.Record(KindMerge, 75, -1)          // merges 1
	r.Record(KindAdopt, 75, 0)           // adoptions 1
	r.Record(KindFullSent, 400, 0)       // full_sends 1, wire_bytes 400
	r.Record(KindDeltaSent, 30, 0)       // delta_sends 1, wire_bytes 430
	r.Record(KindDeltaSent, 20, 0)       // delta_sends 2, wire_bytes 450
	r.Record(KindDeltaGap, 0, 0)         // delta_gaps 1
	r.Record(KindCoalesced, 70, 0)       // coalesced 1
	got, err := json.Marshal(o.Counters())
	if err != nil {
		t.Fatal(err)
	}
	const want = `[` +
		`{"node":0,"best_length":0,"kicks":0,"kick_accepts":0,"improvements":0,` +
		`"perturbations":0,"restarts":0,"broadcasts_sent":0,"broadcasts_received":0,` +
		`"broadcasts_accepted":0,"msg_drops":0},` +
		`{"node":1,"best_length":70,"kicks":2,"kick_accepts":1,"improvements":1,` +
		`"perturbations":3,"restarts":1,"broadcasts_sent":1,"broadcasts_received":2,` +
		`"broadcasts_accepted":1,"msg_drops":1,"iterations":1,"merges":1,"adoptions":1,` +
		`"full_sends":1,"delta_sends":2,"delta_gaps":1,"coalesced":1,"wire_bytes":450}` +
		`]`
	if string(got) != want {
		t.Fatalf("counter JSON drifted:\n got %s\nwant %s", got, want)
	}
}

// TestRecordCounterDeltas pins, kind by kind, the counters one Record
// moves: the rule in CounterSnapshot.count. Kinds absent from the table
// are evented only and must move no counter.
func TestRecordCounterDeltas(t *testing.T) {
	const v = 7
	want := map[Kind]CounterSnapshot{
		KindKickAccepted:      {Kicks: 1, KickAccepts: 1},
		KindKickReverted:      {Kicks: 1},
		KindLKImprove:         {Improvements: 1, BestLength: v},
		KindImprove:           {BestLength: v},
		KindImproveReceived:   {Accepted: 1, BestLength: v},
		KindOptimum:           {BestLength: v},
		KindPerturb:           {Perturbations: v},
		KindRestart:           {Restarts: 1},
		KindBroadcastSent:     {Broadcasts: 1},
		KindBroadcastReceived: {Received: 1},
		KindMsgDropped:        {MsgDrops: 1},
		KindIteration:         {Iterations: 1},
		KindMerge:             {Merges: 1},
		KindAdopt:             {Adoptions: 1},
		KindFullSent:          {FullSends: 1, WireBytes: v},
		KindDeltaSent:         {DeltaSends: 1, WireBytes: v},
		KindDeltaGap:          {DeltaGaps: 1},
		KindCoalesced:         {Coalesced: 1},
	}
	for k := Kind(0); k < numKinds; k++ {
		sink := NewMemorySink()
		r := NewRecorder(4, sink)
		r.Record(k, v, 2)
		w := want[k]
		w.Node = 4
		if got := r.Snapshot(); got != w {
			t.Errorf("%v: counters %+v, want %+v", k, got, w)
		}
		if ev := sink.Events(); len(ev) != 1 || ev[0] != (Event{Node: 4, Kind: k, Value: v, From: 2, At: ev[0].At}) {
			t.Errorf("%v: emitted %+v, want one event carrying value and from", k, ev)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	o := NewObserver(2, nil)
	o.Recorder(0).Record(KindImprove, 77, -1)
	h := MetricsHandler(func() any { return o.Counters() })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got []CounterSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].BestLength != 77 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestNetworkKindsAreNamedAndEALevel(t *testing.T) {
	kinds := []Kind{
		KindMsgDropped, KindMsgDelivered, KindMsgDuplicated,
		KindPartitionStart, KindPartitionHeal, KindNodeCrash, KindNodeRestart,
	}
	for _, k := range kinds {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
		// Network faults are rare relative to kicks; they belong in the
		// collected EA-level stream.
		if !k.EALevel() {
			t.Fatalf("%v must be EA-level", k)
		}
	}
}

func TestRecorderMsgDropAccounting(t *testing.T) {
	sink := NewMemorySink()
	r := NewRecorder(3, sink)
	r.Record(KindMsgDropped, 4012, 1)
	r.Record(KindMsgDropped, 4012, 2)
	r.Record(KindMsgDelivered, 4012, 1)
	r.Record(KindMsgDuplicated, 4012, 2)

	if got := r.Snapshot().MsgDrops; got != 2 {
		t.Fatalf("MsgDrops = %d, want 2", got)
	}
	events := sink.Events()
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	if e := events[0]; e.Kind != KindMsgDropped || e.Node != 3 || e.From != 1 || e.Value != 4012 {
		t.Fatalf("bad drop event %+v", e)
	}
	if e := events[2]; e.Kind != KindMsgDelivered || e.From != 1 {
		t.Fatalf("bad delivery event %+v", e)
	}
}

func TestVirtualObserverStampsWithInjectedClock(t *testing.T) {
	now := 5 * time.Second
	o := NewVirtualObserver(2, nil, func() time.Duration { return now })
	o.Recorder(0).Record(KindImprove, 100, -1)
	now = 9 * time.Second
	o.Recorder(1).Record(KindMsgDropped, 100, 0)
	o.Record(KindPartitionStart, -1, 2, -1)

	events := o.Events()
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	if events[0].At != 5*time.Second {
		t.Fatalf("first event at %v, want the injected 5s", events[0].At)
	}
	if events[1].At != 9*time.Second || events[2].At != 9*time.Second {
		t.Fatalf("later events at %v/%v, want 9s", events[1].At, events[2].At)
	}
	if events[2].Node != -1 || events[2].Kind != KindPartitionStart {
		t.Fatalf("network-scoped event misrecorded: %+v", events[2])
	}
	if o.Elapsed() != 9*time.Second {
		t.Fatalf("Elapsed = %v, want virtual 9s", o.Elapsed())
	}
	if o.Counters()[1].MsgDrops != 1 {
		t.Fatalf("MsgDrops snapshot = %d, want 1", o.Counters()[1].MsgDrops)
	}
}
