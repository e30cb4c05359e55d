package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/cycles"
)

// Chrome trace_event export: the recorded rings rendered for
// chrome://tracing / Perfetto. The timeline is virtual time (cycles
// converted to microseconds at the model clock rate), so real-mode and
// deterministic virtual-mode traces read identically; host-time stamps,
// when present, ride along in each event's args. Lanes render as
// threads of one process — the control lane as "control", worker lane i
// as "worker i" — ticket service spans as complete ("X") events, and
// each ticket's journey from submission to its serving worker as a flow
// arrow bound to the span's start.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePid = 1

// laneTid maps a lane id to a Chrome thread id: control at 0, worker i
// at i+1, so the track order matches the fleet order.
func laneTid(lane int32) int { return int(lane) + 1 }

// WriteChromeTrace serializes the tracer's surviving events as Chrome
// trace JSON. The output is self-contained and deterministic given a
// deterministic event stream (map-typed args hold one key each or are
// marshalled by encoding/json's sorted-key rule).
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if t == nil {
		return json.NewEncoder(w).Encode(&trace)
	}
	add := func(e chromeEvent) { trace.TraceEvents = append(trace.TraceEvents, e) }

	add(chromeEvent{Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "virtine-runtime"}})

	lanes := t.Events()
	for _, le := range lanes {
		name := "control"
		if le.Lane >= 0 {
			name = "worker " + strconv.Itoa(le.Lane)
		}
		add(chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid,
			Tid: laneTid(int32(le.Lane)), Args: map[string]any{"name": name}})
	}

	us := cycles.Micros
	for _, le := range lanes {
		for _, e := range le.Events {
			name := t.NameOf(e.Name)
			if name == "" {
				name = e.Kind.String()
			}
			tid := laneTid(e.Lane)
			args := map[string]any{"kind": e.Kind.String(), "arg0": e.Arg0, "arg1": e.Arg1}
			if e.ID != 0 {
				args["id"] = e.ID
			}
			if e.Host != 0 {
				args["host_ns"] = e.Host
			}
			switch {
			case e.Kind == KindTicket:
				// Service span on the worker track, plus a flow arrow
				// from the submission (arrival time, control track) to
				// the span start — the ticket's life across the system.
				dur := us(e.VEnd - e.VStart)
				args["queue_us"] = us(e.VStart - e.Arg0)
				add(chromeEvent{Name: name, Cat: "ticket", Ph: "X",
					Ts: us(e.VStart), Dur: &dur, Pid: chromePid, Tid: tid, Args: args})
				if e.ID != 0 {
					add(chromeEvent{Name: name, Cat: "ticket", Ph: "s", ID: e.ID,
						Ts: us(e.Arg0), Pid: chromePid, Tid: laneTid(ControlLane)})
					add(chromeEvent{Name: name, Cat: "ticket", Ph: "f", BP: "e", ID: e.ID,
						Ts: us(e.VStart), Pid: chromePid, Tid: tid})
				}
			case e.VEnd > e.VStart:
				dur := us(e.VEnd - e.VStart)
				add(chromeEvent{Name: name, Cat: e.Kind.String(), Ph: "X",
					Ts: us(e.VStart), Dur: &dur, Pid: chromePid, Tid: tid, Args: args})
			default:
				scope := "t"
				if e.Kind == KindAutoscale || e.Kind == KindEpoch {
					scope = "p" // fleet-wide events render process-wide
				}
				add(chromeEvent{Name: name, Cat: e.Kind.String(), Ph: "i", S: scope,
					Ts: us(e.VStart), Pid: chromePid, Tid: tid, Args: args})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&trace)
}
