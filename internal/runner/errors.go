package runner

import (
	"errors"
	"fmt"
)

// Sentinel errors for the failure paths callers are expected to
// branch on.  Job errors wrap these, so callers match with errors.Is
// rather than string inspection.
var (
	// ErrRunnerClosed marks errors caused by runner shutdown: Submit
	// after Close, and jobs abandoned while queued or cancelled
	// mid-run by Close.
	ErrRunnerClosed = errors.New("runner: closed")

	// ErrJobTimeout marks a job that exceeded Options.JobTimeout.
	ErrJobTimeout = errors.New("runner: job timeout")

	// ErrQueueFull marks a submission shed by admission control
	// (Options.MaxQueue).  The job was not registered; the caller
	// should back off and resubmit.
	ErrQueueFull = errors.New("runner: admission queue full")
)

// PanicError is a panic recovered from a worker goroutine, converted
// into an ordinary job failure so one panicking simulation cannot
// take down the process or the pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any

	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: worker panic: %v", e.Value)
}
