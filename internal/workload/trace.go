package workload

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"regconn/internal/codegen"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/mem"
)

// The trace file format: a one-line header
//
//	rctrace <version> <payload-len> <payload-sha256-hex>\n
//
// followed by exactly payload-len bytes of JSON (the Trace struct). The
// checksum makes corruption and truncation detectable before anything is
// interpreted, and its hex form doubles as the trace's cache key — the
// same shape as the serve layer's point keys, so a replayed trace drops
// into the existing LRU/store/shard machinery unchanged.
const (
	traceMagic = "rctrace"

	// TraceVersion is the current trace format version. Decoding rejects
	// any other version: traces are snapshots, not a compatibility
	// surface, and a version bump means "re-emit".
	TraceVersion = 1

	// MaxTracePayload caps the declared payload length at 16 MiB. The
	// largest trace any in-repo workload emits (the paper suite and every
	// profile at seeds 0-9, issue 1 and 8, all five backends) is 0.92 MB:
	// gen/mispredict-heavy/7 at 8-issue under spill. A replay buffers its
	// whole payload before the checksum, so the cap bounds what one upload
	// can hold.
	MaxTracePayload = 1 << 24

	// payloadChunk is the most DecodeTrace allocates ahead of the bytes
	// that fill it. A payload up to this size is read into one exact-size
	// buffer; a longer one grows as its bytes arrive, so a header that
	// claims more than its body holds cannot drive a giant allocation.
	payloadChunk = 1 << 20
)

// ErrBadTrace marks a trace that failed structural validation: bad header,
// checksum mismatch, truncation, malformed JSON, or code or data the
// simulator does not admit under the recorded configuration. The serve
// layer maps it to a structured 4xx response.
var ErrBadTrace = errors.New("workload: bad trace")

// TraceGlobal is one global's layout and initial data — everything the
// simulator's memory-image initialization needs.
type TraceGlobal struct {
	Name  string    `json:"name"`
	Size  int64     `json:"size"`
	InitI []int64   `json:"init_i,omitempty"`
	InitF []float64 `json:"init_f,omitempty"`
}

// Trace is a replayable snapshot of a compiled workload: the linked
// machine code with its annotations, the exact simulator configuration,
// the globals' initial data, and the recorded outcome. Replay feeds the
// simulator directly — no IR pipeline, no compiler — and verifies the
// result against the recorded interpreter oracle (Expect, MemSum) and
// the recorded timing (Cycles, Instrs), so every replay is also a
// whole-simulator determinism check.
type Trace struct {
	Name string `json:"name"` // workload name the trace was recorded from

	// Arch is the canonical architecture JSON the trace was compiled for.
	// It identifies the point (reports, cache keys); replay does not
	// re-derive anything from it — Config is authoritative.
	Arch json.RawMessage `json:"arch"`

	// Config is the exact simulator configuration of the recorded run,
	// including backend-derived knobs (total register-file sizes, chain
	// forwarding, read-port caps, trap bookkeeping). Its observer
	// (Config.Probe) is not serialized.
	Config machine.Config `json:"config"`

	Entry     string          `json:"entry"` // entry function name
	EntryPC   int             `json:"entry_pc"`
	Code      []isa.Instr     `json:"code"`
	Ann       []codegen.Annot `json:"ann"` // 1:1 with Code
	FuncStart map[string]int  `json:"func_start"`
	Globals   []TraceGlobal   `json:"globals"` // in layout order

	// Recorded outcome: the interpreter oracle's return value and data-
	// section digest, and the recorded simulation's cycle/instruction
	// counts. Replay re-verifies all four.
	Expect int64  `json:"expect"`
	MemSum string `json:"mem_sum"`
	Cycles int64  `json:"cycles"`
	Instrs int64  `json:"instrs"`
}

// DataDigest hashes the global data section — words from mem.GlobalBase up
// to end — into a hex digest. Recorded from the interpreter oracle's final
// memory at trace-write time and compared against the simulator's at
// replay.
func DataDigest(m *mem.Memory, end int64) string {
	h := sha256.New()
	var buf [8]byte
	for addr := int64(mem.GlobalBase); addr < end; addr += 8 {
		binary.LittleEndian.PutUint64(buf[:], uint64(m.LoadI(addr)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Encode writes the trace to w and returns its key — the hex SHA-256 of
// the JSON payload, the same string the header carries and replay caching
// keys on.
func (t *Trace) Encode(w io.Writer) (key string, err error) {
	payload, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("workload: encode trace: %w", err)
	}
	sum := sha256.Sum256(payload)
	key = fmt.Sprintf("%x", sum)
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", traceMagic, TraceVersion, len(payload), key); err != nil {
		return "", err
	}
	if _, err := w.Write(payload); err != nil {
		return "", err
	}
	return key, nil
}

// DecodeTrace reads and validates a trace: header shape, version, payload
// length bound, checksum, JSON, and the structural invariants replay
// relies on (Validate). All failures wrap ErrBadTrace; a valid file
// returns the trace and its key.
func DecodeTrace(r io.Reader) (*Trace, string, error) {
	br := bufio.NewReader(r)
	// ReadSlice bounds the header line by br's 4 KiB buffer: a longer
	// line fails with bufio.ErrBufferFull.
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, "", fmt.Errorf("%w: reading header: %v", ErrBadTrace, err)
	}
	header := string(line)
	var magic, key string
	var version, length int
	if n, err := fmt.Sscanf(header, "%s %d %d %s", &magic, &version, &length, &key); n != 4 || err != nil {
		return nil, "", fmt.Errorf("%w: malformed header %q", ErrBadTrace, header)
	}
	if magic != traceMagic {
		return nil, "", fmt.Errorf("%w: not a trace file (magic %q)", ErrBadTrace, magic)
	}
	if version != TraceVersion {
		return nil, "", fmt.Errorf("%w: version %d, this build reads %d", ErrBadTrace, version, TraceVersion)
	}
	if length <= 0 || length > MaxTracePayload {
		return nil, "", fmt.Errorf("%w: implausible payload length %d", ErrBadTrace, length)
	}
	payload, err := readPayload(br, length)
	if err != nil {
		return nil, "", fmt.Errorf("%w: truncated payload: %v", ErrBadTrace, err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(payload)); sum != key {
		return nil, "", fmt.Errorf("%w: checksum mismatch (header %s, payload %s)", ErrBadTrace, key, sum)
	}
	var t Trace
	if err := json.Unmarshal(payload, &t); err != nil {
		return nil, "", fmt.Errorf("%w: payload: %v", ErrBadTrace, err)
	}
	if err := t.Validate(); err != nil {
		return nil, "", err
	}
	return &t, key, nil
}

// readPayload reads exactly n bytes from r. Its buffer starts at
// min(n, payloadChunk) bytes and doubles, up to n, only when full.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, payloadChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*cap(buf), n)), buf...)
		}
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Validate checks the structural invariants replay relies on so that a
// hand-edited or corrupt-but-checksummed trace surfaces as a structured
// error rather than a simulator fault: the trace's shape (checkShape) and
// code the simulator admits under the recorded configuration
// (machine.Check: issue geometry, register files, memory size, operand
// classes and bounds, targets).
func (t *Trace) Validate() error {
	if err := t.checkShape(); err != nil {
		return err
	}
	if err := machine.Check(t.Code, t.Config); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return nil
}

// checkShape is Validate without code admission: non-empty code,
// annotations 1:1 with it, an entry inside it, and sane globals.
func (t *Trace) checkShape() error {
	if len(t.Code) == 0 {
		return fmt.Errorf("%w: empty code", ErrBadTrace)
	}
	if len(t.Ann) != len(t.Code) {
		return fmt.Errorf("%w: %d annotations for %d instructions", ErrBadTrace, len(t.Ann), len(t.Code))
	}
	if t.EntryPC < 0 || t.EntryPC >= len(t.Code) {
		return fmt.Errorf("%w: entry pc %d outside code [0,%d)", ErrBadTrace, t.EntryPC, len(t.Code))
	}
	if t.Entry == "" {
		return fmt.Errorf("%w: empty entry name", ErrBadTrace)
	}
	for _, g := range t.Globals {
		if g.Name == "" || g.Size < 0 {
			return fmt.Errorf("%w: global %q with size %d", ErrBadTrace, g.Name, g.Size)
		}
		if int64(len(g.InitI))*8 > g.Size || int64(len(g.InitF))*8 > g.Size {
			return fmt.Errorf("%w: global %q: initializer exceeds size %d", ErrBadTrace, g.Name, g.Size)
		}
	}
	return nil
}

// image reconstructs the loaded machine image. The simulator needs the IR
// program only for the globals' initial data (mem.InitImageInto) and the
// entry name, so a minimal program carrying exactly the recorded globals —
// in recorded order, which makes mem.ComputeLayout reproduce the original
// layout; the code's absolute addresses were baked in at link time — is a
// faithful reconstruction.
func (t *Trace) image() *machine.Image {
	p := ir.NewProgram()
	for _, g := range t.Globals {
		ng := p.AddGlobal(g.Name, g.Size)
		ng.InitI = g.InitI
		ng.InitF = g.InitF
	}
	return &machine.Image{
		Code:      t.Code,
		Ann:       t.Ann,
		FuncStart: t.FuncStart,
		Entry:     t.EntryPC,
		Layout:    mem.ComputeLayout(p),
		Prog:      &codegen.MProg{Entry: t.Entry, IR: p},
	}
}

// replayArenas pools the simulation arenas of replays, as exp pools its
// sweep's: concurrent replays reuse a handful of warm machines instead of
// allocating one per trace. Safe because Reset restores power-on state and
// Replay copies out what it returns before the arena goes back.
var replayArenas = sync.Pool{New: func() any { return machine.NewMachine() }}

// Replay feeds the trace to the simulator — no IR pipeline, no compiler —
// and verifies the result against everything the trace recorded: the
// interpreter oracle's return value and memory digest and the recorded
// cycle and instruction counts (the determinism pin: one trace must
// produce one timing, bit-exact, forever). The simulator itself refuses a
// run whose cycle-attribution ledger does not close. The run uses a pooled
// arena, and every check reads it before it goes back to the pool; the
// returned result is detached from it: its counters, issue histogram and
// map telemetry are copies, and it carries no memory image (Mem is nil).
// Replay checks the trace's shape itself and leaves admitting its code to
// Machine.Reset, which admits every image it loads as machine.Check does:
// a shape or admission failure wraps ErrBadTrace. A guest fault while
// Reset loads the globals is a *machine.RuntimeError, as at run time.
func (t *Trace) Replay(ctx context.Context) (*machine.Result, error) {
	if err := t.checkShape(); err != nil {
		return nil, err
	}
	img := t.image()
	m := replayArenas.Get().(*machine.Machine)
	defer replayArenas.Put(m)
	if err := m.Reset(img, t.Config); err != nil {
		var fault *machine.RuntimeError
		if errors.As(err, &fault) {
			return nil, fmt.Errorf("workload: replay %s: %w", t.Name, err)
		}
		return nil, fmt.Errorf("%w: replay %s: %w", ErrBadTrace, t.Name, err)
	}
	res, err := m.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("workload: replay %s: %w", t.Name, err)
	}
	if res.RetInt != t.Expect {
		return nil, fmt.Errorf("workload: replay %s: result %d, trace recorded %d", t.Name, res.RetInt, t.Expect)
	}
	if t.MemSum != "" {
		end := img.Layout.DataEnd(img.Prog.IR)
		if sum := DataDigest(res.Mem, end); sum != t.MemSum {
			return nil, fmt.Errorf("workload: replay %s: memory digest %s, trace recorded %s", t.Name, sum, t.MemSum)
		}
	}
	if t.Cycles != 0 && (res.Cycles != t.Cycles || res.Instrs != t.Instrs) {
		return nil, fmt.Errorf("workload: replay %s: %d cycles / %d instrs, trace recorded %d / %d (simulator nondeterminism or drift)",
			t.Name, res.Cycles, res.Instrs, t.Cycles, t.Instrs)
	}
	out := *res
	out.Mem = nil
	out.IssueHist = slices.Clone(res.IssueHist)
	out.MapInt, out.MapFP = res.MapInt.Clone(), res.MapFP.Clone()
	return &out, nil
}
