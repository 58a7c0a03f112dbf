package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"distclk/internal/obs"
)

// wireEvent is the streaming wire form of one solve event, shared by the
// SSE and JSONL formats; kind is obs.Kind's String name.
type wireEvent struct {
	AtMS  float64 `json:"at_ms"`
	Kind  string  `json:"kind"`
	Node  int     `json:"node"`
	Value int64   `json:"value,omitempty"`
	From  *int    `json:"from,omitempty"`
}

func toWire(e obs.Event) wireEvent {
	we := wireEvent{
		AtMS:  float64(e.At.Microseconds()) / 1000,
		Kind:  e.Kind.String(),
		Node:  e.Node,
		Value: e.Value,
	}
	if e.From >= 0 {
		from := e.From
		we.From = &from
	}
	return we
}

// handleJobEvents streams a job's progress events until the job reaches
// a terminal state or the client disconnects. Default format is SSE
// (text/event-stream); ?format=jsonl switches to newline-delimited
// JSON. Subscribers attach with a bounded buffer: a stalled client
// loses events (counted in /v1/stats) instead of stalling the solver.
//
// The stream always ends with one final event of kind "job" carrying the
// terminal JobStatus, so consumers need no side-channel poll.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &apiError{http.StatusNotFound, "unknown job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, &apiError{http.StatusInternalServerError, "streaming unsupported"})
		return
	}
	jsonl := r.URL.Query().Get("format") == "jsonl"
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Subscribe before inspecting state: a job finishing between the
	// check and the subscription would otherwise lose its terminal
	// notification. A closed broadcaster returns a closed channel, so a
	// finished job falls straight through to the final event.
	sub := j.bcast.Subscribe(sseBuffer)
	defer sub.Cancel()
	for {
		select {
		case e, open := <-sub.Events():
			if !open {
				writeFinal(w, j, jsonl)
				flusher.Flush()
				return
			}
			writeEvent(w, toWire(e), jsonl)
			flusher.Flush()
		case <-r.Context().Done():
			return // client went away; Cancel detaches the subscription
		}
	}
}

// sseBuffer is each subscriber's event buffer. Snapshot cadence is
// ~10/s and EA-level events are sparse, so 256 rides out multi-second
// client stalls before dropping.
const sseBuffer = 256

func writeEvent(w http.ResponseWriter, we wireEvent, jsonl bool) {
	data, err := json.Marshal(we)
	if err != nil {
		return // plain fields; cannot happen
	}
	if jsonl {
		w.Write(data)
		w.Write([]byte("\n"))
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", we.Kind, data)
}

// writeFinal emits the closing "job" event with the terminal status.
func writeFinal(w http.ResponseWriter, j *job, jsonl bool) {
	data, err := json.Marshal(j.status())
	if err != nil {
		return
	}
	if jsonl {
		w.Write(data)
		w.Write([]byte("\n"))
		return
	}
	fmt.Fprintf(w, "event: job\ndata: %s\n\n", data)
}
