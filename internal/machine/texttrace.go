package machine

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// TextTrace is the Probe that renders a run as a per-cycle issue log: one
// line per cycle, stamped with its cycle, listing the instructions that
// issued with their resolved physical operands, or the stall reason of a
// zero-issue cycle. The last line ends with the HALT fetch, after whatever
// issued before it in its cycle. Output is buffered until Close.
type TextTrace struct {
	w      *bufio.Writer
	file   *os.File // the underlying writer when it is a file, for fsync
	cycles int64    // render only cycles below this (0 = no limit)
	imgs   []*Image // one per process, for disassembly
	open   bool     // a line is started and not yet ended
	at     int64    // the open line's cycle
}

// NewTextTrace returns a text trace that writes the first cycles cycles
// (0 = no limit) of a run to w. imgs holds one image per process, in
// process order; pass the single image of a plain run.
func NewTextTrace(w io.Writer, cycles int64, imgs ...*Image) *TextTrace {
	f, _ := w.(*os.File)
	return &TextTrace{w: bufio.NewWriterSize(w, 1<<16), file: f, cycles: cycles, imgs: imgs}
}

// Event renders e (the Probe method).
func (t *TextTrace) Event(e Event) {
	if t.cycles > 0 && e.Cycle >= t.cycles {
		return
	}
	switch e.Kind {
	case EvIssue:
		t.entry(e.Cycle, "%d:%s", e.PC, instrName(t.imgs, e.Proc, e.PC))
	case EvStall:
		t.entry(e.Cycle, "(stall: %s)", stallNames[e.Arg])
	case EvHalt:
		t.entry(e.Cycle, "halt")
	}
}

// entry writes one entry on the line of cycle, starting that line (and
// ending the previous one) unless it is the open line.
func (t *TextTrace) entry(cycle int64, format string, args ...any) {
	if t.open && cycle == t.at {
		t.w.WriteString(" | ")
	} else {
		t.endLine()
		fmt.Fprintf(t.w, "%8d  ", cycle)
		t.open, t.at = true, cycle
	}
	fmt.Fprintf(t.w, format, args...)
}

func (t *TextTrace) endLine() {
	if t.open {
		t.w.WriteByte('\n')
		t.open = false
	}
}

// Close ends the trace of a run that returned runErr. When runErr is a
// *RuntimeError raised in a traced cycle, the trace ends with a "!! err"
// tail after the instruction that died (a canceled run has none). Close
// then flushes the output, fsyncing a file so the tail survives a crashed
// host, and returns runErr, or else the flush failure.
func (t *TextTrace) Close(runErr error) error {
	var re *RuntimeError
	if errors.As(runErr, &re) && re.PC >= 0 && (t.cycles == 0 || re.Cycle < t.cycles) {
		if errors.Is(re, ErrCanceled) {
			t.entry(re.Cycle, "!! %v", re)
		} else {
			t.entry(re.Cycle, "%d:%s  !! %v", re.PC, instrName(t.imgs, re.Proc, int32(re.PC)), re)
		}
	}
	t.endLine()
	err := t.w.Flush()
	if t.file != nil {
		// Pipes, terminals, and /dev/null don't support fsync
		// (EINVAL/ENOTSUP); only real files need the durability.
		if serr := t.file.Sync(); err == nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
			err = serr
		}
	}
	if runErr == nil && err != nil {
		return fmt.Errorf("machine: trace flush: %w", err)
	}
	return runErr
}
