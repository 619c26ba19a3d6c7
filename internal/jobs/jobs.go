// Package jobs is the durable job subsystem behind esdserve's /jobs API:
// a persistent job store (submit → job ID → poll / event stream / fetch
// result) plus a scheduler that runs syntheses in time slices, preempting
// long jobs into search checkpoints and requeueing them, so one slow
// synthesis cannot monopolize the service and an accepted job survives a
// process restart.
//
// The package splits into a Store (where job records live — in memory for
// tests, file-backed WAL+snapshot for deployments) and a Manager (the
// worker pool and state machine). The Manager is deliberately ignorant of
// what a job does: the service supplies a Runner that interprets the
// job's request payload, runs one slice of it, and reports whether it
// finished, was preempted into a checkpoint, or failed.
//
// Job lifecycle:
//
//	queued → running → done | failed | cancelled
//	           ↓ (time slice expired: checkpoint persisted)
//	        checkpointed → running (resumed) → …
//
// Durability: every transition is persisted before it is published, so
// the store never claims more than what has happened. After a crash,
// jobs found "running" are demoted to their last checkpoint (or back to
// queued if they never completed a slice) and re-enqueued — work since
// the last persisted checkpoint is repeated, never lost, and the
// determinism contract makes the repeat byte-identical.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// State is a job's position in the lifecycle.
type State string

const (
	// StateQueued: accepted, waiting for a worker (fresh or recovered).
	StateQueued State = "queued"
	// StateRunning: a worker is executing a slice of it right now.
	StateRunning State = "running"
	// StateCheckpointed: preempted mid-search; the persisted checkpoint is
	// the job's entire progress, and the job is queued for another slice.
	StateCheckpointed State = "checkpointed"
	// StateDone: finished; Result holds the outcome payload.
	StateDone State = "done"
	// StateFailed: the runner returned an error; Error holds it.
	StateFailed State = "failed"
	// StateCancelled: withdrawn by the caller before completion.
	StateCancelled State = "cancelled"
)

// States lists every job state, in lifecycle order — the iteration order
// of depth maps and metrics exposition.
var States = []State{StateQueued, StateRunning, StateCheckpointed, StateDone, StateFailed, StateCancelled}

// Terminal reports whether the state is final (no worker will touch the
// job again).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one unit of durable work. The Request payload is opaque to this
// package (the service stores its wire request); Checkpoint is the
// serialized search of a preempted job, also opaque here.
type Job struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Request is the submitter's payload, replayed to the Runner on every
	// slice (including post-restart resumes).
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the runner's final payload (done jobs only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message (failed jobs only).
	Error string `json:"error,omitempty"`
	// Checkpoint is the serialized search of a preempted job — the exact
	// bytes handed back by the runner, re-supplied on resume.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	CreatedUnixMS int64 `json:"created_unix_ms"`
	UpdatedUnixMS int64 `json:"updated_unix_ms"`

	// Resumes counts slices that started from a checkpoint (including
	// post-restart recovery); Preemptions counts slices that ended in one.
	Resumes     int `json:"resumes,omitempty"`
	Preemptions int `json:"preemptions,omitempty"`
	// CheckpointBytes and CheckpointNS describe the latest checkpoint:
	// its encoded size and the wall-clock cost of capturing and encoding it.
	CheckpointBytes int   `json:"checkpoint_bytes,omitempty"`
	CheckpointNS    int64 `json:"checkpoint_ns,omitempty"`
	// PeakInternerBytes is the largest process interner footprint observed
	// at any of this job's slice boundaries; SolverWallNS is cumulative
	// wall-clock spent in the solver across all slices.
	PeakInternerBytes int64 `json:"peak_interner_bytes,omitempty"`
	SolverWallNS      int64 `json:"solver_wall_ns,omitempty"`
}

// Clone deep-copies the job, so stored records never alias caller memory.
func (j *Job) Clone() *Job {
	c := *j
	c.Request = append(json.RawMessage(nil), j.Request...)
	c.Result = append(json.RawMessage(nil), j.Result...)
	c.Checkpoint = append([]byte(nil), j.Checkpoint...)
	return &c
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// time-derived ID rather than refusing all submissions.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// Store persists job records. Implementations must be safe for concurrent
// use and must copy on both Put and Get (callers may mutate their copies
// freely). Put is insert-or-replace keyed by Job.ID.
type Store interface {
	Put(j *Job) error
	Get(id string) (*Job, bool)
	// List returns every job, in no particular order.
	List() ([]*Job, error)
	Delete(id string) error
	Close() error
}

// MemStore is the in-memory Store used by tests and by servers run
// without a data directory: same semantics as FileStore, no durability.
type MemStore struct {
	mu   sync.Mutex
	jobs map[string]*Job
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{jobs: map[string]*Job{}}
}

func (s *MemStore) Put(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j.Clone()
	return nil
}

func (s *MemStore) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.Clone(), true
}

func (s *MemStore) List() ([]*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.Clone())
	}
	return out, nil
}

func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	return nil
}

func (s *MemStore) Close() error { return nil }
