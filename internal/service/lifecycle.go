package service

import (
	"context"
	"sync"
	"time"
)

// Payload constrains a Lifecycle's event type: a JSON-encodable value
// that names its SSE event and accepts the sequence number the log
// assigns it. Job events (Event) and campaign events both qualify.
type Payload[E any] interface {
	// Kind is the event's type, the SSE "event:" name.
	Kind() string
	// Numbered returns a copy of the event carrying sequence number seq.
	Numbered(seq int) E
}

// Lifecycle is the one state machine behind every job execution and
// every campaign: the state, the report bytes, the error, the finish
// time, and an append-only event log that subscribers replay and then
// follow. Its invariant is that a terminal state is true before it is
// visible: Finish first runs the caller's pre-publish step (persist the
// report or state record; evict a failed job from the cache) and only
// then, under one lock, publishes the terminal state and report,
// appends the terminal event, and closes the log. So "done" from
// State, Wait, the HTTP views, and the SSE stream all mean "the store
// holds it" (when there is a store).
type Lifecycle[E Payload[E]] struct {
	mu         sync.Mutex
	state      State
	report     []byte
	err        error
	finishedAt time.Time
	events     []E
	wake       chan struct{} // closed and replaced on every append
}

// NewLifecycle starts a lifecycle in a non-terminal state with an
// empty log.
func NewLifecycle[E Payload[E]](st State) *Lifecycle[E] {
	return &Lifecycle[E]{state: st, wake: make(chan struct{})}
}

// DoneLifecycle builds a lifecycle that is born done: a store hit or a
// restored campaign. Its log holds events (the last one terminal) and
// is already closed.
func DoneLifecycle[E Payload[E]](report []byte, events ...E) *Lifecycle[E] {
	l := NewLifecycle[E](StateDone)
	l.report, l.finishedAt = report, time.Now()
	for _, ev := range events {
		l.appendLocked(ev)
	}
	return l
}

// appendLocked numbers and appends one event and wakes followers;
// l.mu must be held (or l not yet shared).
func (l *Lifecycle[E]) appendLocked(ev E) {
	l.events = append(l.events, ev.Numbered(len(l.events)+1))
	close(l.wake)
	l.wake = make(chan struct{})
}

// Emit appends a progress event. Events after the terminal one are
// dropped.
func (l *Lifecycle[E]) Emit(ev E) {
	l.Advance("", ev)
}

// Advance moves to a non-terminal state (st == "" keeps the current
// one) and appends ev, atomically. Ignored once terminal.
func (l *Lifecycle[E]) Advance(st State, ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state.Terminal() {
		return
	}
	if st != "" {
		l.state = st
	}
	l.appendLocked(ev)
}

// Finish makes the lifecycle terminal. before (may be nil) runs first,
// outside the lock, to make the outcome true elsewhere — persist the
// report, evict a failed cache entry — before anyone can observe it;
// then the state, report (kept only for StateDone), error, finish
// time, and terminal event ev are published together. A lifecycle that
// is already terminal is left as it is.
func (l *Lifecycle[E]) Finish(st State, report []byte, err error, ev E, before func()) {
	if before != nil {
		before()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state.Terminal() {
		return
	}
	l.state, l.err, l.finishedAt = st, err, time.Now()
	if st == StateDone {
		l.report = report
	}
	l.appendLocked(ev)
}

// State returns the current lifecycle position.
func (l *Lifecycle[E]) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Report returns the report bytes and true once done.
func (l *Lifecycle[E]) Report() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.report, l.state == StateDone
}

// Err returns the terminal error (nil unless failed or canceled).
func (l *Lifecycle[E]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// FinishedAt returns when the lifecycle went terminal, and whether it
// has.
func (l *Lifecycle[E]) FinishedAt() (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finishedAt, l.state.Terminal()
}

// After returns the events past idx, whether the log is closed (the
// terminal event is among the events so far), and a channel closed on
// the next append — the replay-then-follow primitive.
func (l *Lifecycle[E]) After(idx int) ([]E, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx = min(idx, len(l.events))
	return l.events[idx:], l.state.Terminal(), l.wake
}

// Follow replays every event to fn, then follows live ones until the
// terminal event or until ctx expires, and returns the state at that
// point.
func (l *Lifecycle[E]) Follow(ctx context.Context, fn func(E)) State {
	for idx := 0; ; {
		events, closed, wake := l.After(idx)
		idx += len(events)
		for _, ev := range events {
			fn(ev)
		}
		if closed {
			return l.State()
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return l.State()
		}
	}
}

// Wait blocks until the lifecycle is terminal or ctx expires and
// returns the state either way.
func (l *Lifecycle[E]) Wait(ctx context.Context) State {
	return l.Follow(ctx, func(E) {})
}
