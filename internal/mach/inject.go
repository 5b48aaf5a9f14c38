package mach

// Fault-injection and recovery hooks. The campaign engine
// (internal/inject) arms a machine with one Injection before the run;
// the machine stops at the trigger point and hands control to the
// injection's Fire hook, which perturbs state through the same checked
// primitives the program itself would use. Recovery — re-entering or
// skipping a failed gated operation — is the SvcFault/SvcSkip half,
// driven by the monitor's policy.

import (
	"fmt"

	"opec/internal/ir"
)

// Injection is a one-shot perturbation armed on a machine before it
// runs. The trigger is deterministic: either the N-th entry (1-based)
// of Func, or — when Func is nil — the first instruction whose global
// index reaches At. Firing disarms the injection before Fire runs, so
// a recovery policy that re-enters the perturbed operation replays a
// clean body.
type Injection struct {
	Func *ir.Function
	N    int
	At   uint64

	// Fire performs the perturbation with the machine stopped at the
	// trigger point. A non-nil error aborts the triggering instruction
	// as if it had faulted there.
	Fire func(m *Machine) error
}

// Arm installs inj on the machine, replacing any previous injection
// (fired or not). Arm(nil) disarms.
func (m *Machine) Arm(inj *Injection) { m.inj = inj }

// InjectStore performs a store at the machine's current privilege with
// the full MPU/handler pipeline — the primitive a Fire hook uses to
// model a rogue write issued by compromised code. The returned error is
// the unresolved fault, if any.
func (m *Machine) InjectStore(addr uint32, size int, v uint32) error {
	return m.storeChecked(addr, size, v)
}

// InjectSvc issues an operation-entry supervisor call from the current
// context — a forged gate call with attacker-chosen arguments.
func (m *Machine) InjectSvc(entry *ir.Function, args []uint32) (uint32, error) {
	return m.svcCall(nil, entry, args)
}

// SvcSkip, returned as the error of a SvcEnter handler, short-circuits
// the gated call: the entry body never runs and the SVC yields Ret to
// the caller. The monitor answers gate calls into quarantined
// operations this way.
type SvcSkip struct{ Ret uint32 }

func (e *SvcSkip) Error() string { return "mach: svc skipped by monitor" }

// SvcRecovery tells svcCall how the SvcFault handler resolved a failed
// operation body.
type SvcRecovery uint8

const (
	// SvcPropagate unwinds with the error (the default).
	SvcPropagate SvcRecovery = iota
	// SvcRetry re-enters the operation body (the handler restored its
	// state first).
	SvcRetry
	// SvcReturn suppresses the error and completes the SVC with Ret;
	// the handler already unwound the operation context, so the exit
	// hook is skipped.
	SvcReturn
)

// SvcFaultResolution is the result of a SvcFault handler.
type SvcFaultResolution struct {
	Action SvcRecovery
	Ret    uint32 // returned value when Action == SvcReturn
}

// ExecError locates a failure inside the executing program: the
// innermost function it unwound from, that function's code address (the
// faulting PC neighbourhood) and the instruction count at the failure.
// The interpreter wraps exactly once, at the innermost frame.
type ExecError struct {
	Fn    string
	PC    uint32
	Instr uint64
	Err   error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("in %s (pc %#08x, instr %d): %v", e.Fn, e.PC, e.Instr, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }
