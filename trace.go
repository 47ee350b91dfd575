package regconn

import (
	"encoding/json"
	"fmt"

	"regconn/internal/workload"
)

// Trace records the executable into a replayable workload trace: the
// linked code and annotations, the exact simulator configuration, the
// globals' initial data, and the recorded outcome. The executable is
// verified first — one simulation checked against the interpreter oracle —
// so a trace is only ever written for a run the oracle has already proven,
// and the recorded cycle count pins the simulator's determinism for every
// future replay. name is the workload name embedded in the trace (the
// benchmark or gen/<profile>/<seed> name).
func (e *Executable) Trace(name string) (*workload.Trace, error) {
	res, err := e.Verify()
	if err != nil {
		return nil, fmt.Errorf("regconn: trace %s: %w", name, err)
	}
	archJSON, err := json.Marshal(e.Arch.Canonical())
	if err != nil {
		return nil, fmt.Errorf("regconn: trace %s: %w", name, err)
	}
	p := e.MProg.IR
	globals := make([]workload.TraceGlobal, 0, len(p.Globals))
	for _, g := range p.Globals {
		globals = append(globals, workload.TraceGlobal{
			Name:  g.Name,
			Size:  g.Size,
			InitI: g.InitI,
			InitF: g.InitF,
		})
	}
	return &workload.Trace{
		Name:      name,
		Arch:      archJSON,
		Config:    e.cfg,
		Entry:     e.MProg.Entry,
		EntryPC:   e.Image.Entry,
		Code:      e.Image.Code,
		Ann:       e.Image.Ann,
		FuncStart: e.Image.FuncStart,
		Globals:   globals,
		Expect:    e.Golden.Ret,
		MemSum:    workload.DataDigest(e.Golden.Mem, e.Golden.Layout.DataEnd(p)),
		Cycles:    res.Cycles,
		Instrs:    res.Instrs,
	}, nil
}
