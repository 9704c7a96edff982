package core

import (
	"fmt"
	"runtime/debug"
)

// InternalError is a library invariant violation (a panic inside
// internal/noc, internal/traffic or this package) converted into a
// typed error at a Guard boundary. Every analysis entry point
// (Engine.AnalyzeContext and the methods built on it, Incremental.Apply
// and Incremental.Analyze) runs behind one, and long-lived callers — the
// serving layer above all — wrap engine construction in Guard too, so an
// adversarial or malformed system that trips an internal panic (e.g. the
// memo-key check in sets.go) degrades into an error response instead of
// killing the process.
type InternalError struct {
	// Op names the guarded operation, e.g. "analyze" or "engine build".
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error formats the guarded operation and the recovered panic value;
// the captured stack is not included (inspect Stack directly).
func (e *InternalError) Error() string {
	return fmt.Sprintf("core: internal error in %s: %v", e.Op, e.Value)
}

// Guard runs fn and converts a panic into an *InternalError tagged with
// op. A panic value that already is an *InternalError is passed through
// unchanged, so nested guards do not re-wrap.
func Guard(op string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if ie, ok := v.(*InternalError); ok {
				err = ie
				return
			}
			err = &InternalError{Op: op, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
