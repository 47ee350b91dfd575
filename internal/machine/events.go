package machine

// Pipeline events, the run's single observer seam (Config.Probe), and the
// event ring: a fixed-capacity ring of compact event records with a Chrome
// trace-event JSON exporter, so a run can be inspected on a timeline in
// chrome://tracing or Perfetto instead of by eyeballing the flat text
// trace. One simulated cycle maps to one microsecond of trace time; each
// process gets one track per issue slot, one stall track, and one instant
// track for connects, map resets, and traps.

import (
	"fmt"
	"io"

	"regconn/internal/obs"
)

// EventKind classifies one pipeline event.
type EventKind uint8

const (
	// EvIssue is one instruction occupying one issue slot for one cycle.
	EvIssue EventKind = iota
	// EvStall is a zero-issue cycle; Arg is the stall reason (stallReason).
	EvStall
	// EvConnect is a connect instruction rewriting map entries (instant).
	EvConnect
	// EvReset is a CALL/RET map-table home reset (instant).
	EvReset
	// EvTrap is an interrupt; Dur is the overhead charged.
	EvTrap
	// EvHalt is the final HALT fetch (instant).
	EvHalt
	// EvSwitch is a multiprogramming context switch; Dur is its cost.
	EvSwitch
	// EvMispredict follows a mispredicted branch's EvIssue; Dur is the
	// front-end refill penalty.
	EvMispredict
)

// Event is one compact trace record. PC indexes Image.Code; Slot is the
// issue slot of an EvIssue, and for EvHalt the number of instructions that
// issued before the HALT in its cycle; Proc is the process index (0 for
// single-process runs).
type Event struct {
	Kind  EventKind
	Cycle int64
	Dur   int64
	PC    int32
	Slot  uint8
	Proc  uint8
	Arg   int32
}

// Probe observes a run: the simulator calls Event for every pipeline event,
// in simulated-time order. Attach one through Config.Probe.
type Probe interface {
	Event(Event)
}

// Probes is a Probe that hands each event to every member, in order, so
// one run can carry several observers. Reset prepares each member as a
// lone probe, and the first PCProf among them is the run's Result.Prof.
type Probes []Probe

// Event hands e to every member (the Probe method).
func (ps Probes) Event(e Event) {
	for _, p := range ps {
		p.Event(e)
	}
}

// prepare readies p for a run of n instructions at the given issue width
// and returns the first PCProf it is or holds, for Result.Prof.
func prepare(p Probe, n, issue int) (prof *PCProf) {
	switch p := p.(type) {
	case *PCProf:
		p.reset(n)
		return p
	case *EventRing:
		p.issue = issue
	case Probes:
		for _, q := range p {
			if pp := prepare(q, n, issue); prof == nil {
				prof = pp
			}
		}
	}
	return prof
}

// EventRing is a bounded event buffer: when full, the oldest events are
// overwritten, so the trace always holds the most recent window of the
// run. The zero value is a ready-to-use ring of DefaultEventCap events
// (storage allocated on the first event), so `Config.Probe =
// &EventRing{}` works. It is not safe for concurrent use (the simulator
// is single-threaded).
//
// The ring is a single monotonic write counter over a fixed slice: event
// number i lives at buf[i % len(buf)]. The oldest retained event and the
// overwrite count both derive from the counter, so iteration cannot drift
// out of sync with the write position.
type EventRing struct {
	buf   []Event
	total int64 // events ever added; next write goes to buf[total % len]
	issue int   // issue rate of the attached machine (track layout)
}

// DefaultEventCap is the default ring capacity (events, not cycles).
const DefaultEventCap = 1 << 16

// NewEventRing returns a ring holding up to capacity events (0 selects
// DefaultEventCap).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Event records e (the Probe method), overwriting the oldest when full.
// Mispredicts are not kept: the refill shows as the gap after the branch.
func (r *EventRing) Event(e Event) {
	if e.Kind == EvMispredict {
		return
	}
	if len(r.buf) == 0 {
		r.buf = make([]Event, DefaultEventCap)
	}
	r.buf[r.total%int64(len(r.buf))] = e
	r.total++
}

// Events returns the buffered events, oldest first. After the ring wraps,
// the first returned event is the true oldest retained entry (event number
// total-len), never a slot the writer has already reclaimed.
func (r *EventRing) Events() []Event {
	n := int64(len(r.buf))
	if r.total == 0 || n == 0 {
		return nil
	}
	if r.total <= n {
		return append([]Event(nil), r.buf[:r.total]...)
	}
	start := r.total % n
	out := make([]Event, 0, n)
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Dropped reports how many events were overwritten after the ring filled.
func (r *EventRing) Dropped() int64 {
	if n := int64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}

// instrName disassembles the instruction at pc in the process's image
// (best effort; out-of-range PCs can only come from a corrupted ring).
func instrName(imgs []*Image, proc uint8, pc int32) string {
	if int(proc) < len(imgs) {
		if code := imgs[proc].Code; pc >= 0 && int(pc) < len(code) {
			return code[pc].String()
		}
	}
	return fmt.Sprintf("pc=%d", pc)
}

// WriteTraceJSON renders the buffered events as Chrome trace-event JSON
// (load the file in chrome://tracing or ui.perfetto.dev), using the
// document model shared with the request-level span export in
// internal/obs. imgs holds one image per process, in process order, for
// instruction names; pass the single image of a plain Run. One cycle is
// rendered as one microsecond.
func (r *EventRing) WriteTraceJSON(w io.Writer, imgs ...*Image) error {
	stallTid := r.issue
	instantTid := r.issue + 1

	out := obs.TraceFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"cycle_unit":     "1 cycle = 1us",
			"events_dropped": r.Dropped(),
		},
	}

	var procs [256]bool // processes seen, by index
	for _, e := range r.Events() {
		procs[e.Proc] = true
		pid := int(e.Proc)
		var te obs.TraceEvent
		switch e.Kind {
		case EvIssue:
			te = obs.Complete(instrName(imgs, e.Proc, e.PC), e.Cycle, 1, pid, int(e.Slot))
			te.Args = map[string]any{"pc": e.PC}
		case EvStall:
			te = obs.Complete("stall:"+stallNames[stallReason(e.Arg)], e.Cycle, 1, pid, stallTid)
			te.Args = map[string]any{"pc": e.PC}
		case EvConnect:
			te = obs.Instant(instrName(imgs, e.Proc, e.PC), e.Cycle, pid, instantTid)
			te.Args = map[string]any{"pc": e.PC}
		case EvReset:
			te = obs.Instant("map-reset", e.Cycle, pid, instantTid)
			te.Args = map[string]any{"pc": e.PC}
		case EvTrap:
			te = obs.Complete("trap", e.Cycle, e.Dur, pid, instantTid)
			te.Args = map[string]any{"overhead_cycles": e.Dur}
		case EvHalt:
			te = obs.Instant("halt", e.Cycle, pid, instantTid)
		case EvSwitch:
			te = obs.Complete("context-switch", e.Cycle, e.Dur, pid, instantTid)
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}

	// Track metadata: name each process and thread so the viewer shows
	// "slot 0..n-1 / stall / events" instead of bare tids.
	for pid, seen := range procs {
		if !seen {
			continue
		}
		name := fmt.Sprintf("process %d", pid)
		if pid < len(imgs) {
			name = fmt.Sprintf("process %d (%s)", pid, imgs[pid].Prog.Entry)
		}
		out.TraceEvents = append(out.TraceEvents, obs.MetaProcessName(pid, name))
		for s := 0; s < r.issue; s++ {
			out.TraceEvents = append(out.TraceEvents,
				obs.MetaThreadName(pid, s, fmt.Sprintf("issue slot %d", s)))
		}
		out.TraceEvents = append(out.TraceEvents,
			obs.MetaThreadName(pid, stallTid, "stall"),
			obs.MetaThreadName(pid, instantTid, "events"))
	}

	return obs.WriteTraceFile(w, &out)
}
