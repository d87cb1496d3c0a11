package grid

import (
	"fmt"
	"sync"
)

// Data staging: the paper constrains partitioning "by device resources,
// data and code locations, and network bandwidth". A dataset already
// staged on the grid does not cross the access link again — repeated
// analyses over the same sensor data (continuous queries, ensembles) pay
// the uplink once.

// stagedData tracks one dataset resident on the grid.
type stagedData struct {
	bytes int
	hits  int
}

// StageManager tracks datasets staged behind the cluster's access link.
type StageManager struct {
	mu     sync.Mutex
	staged map[string]*stagedData
	// Capacity bounds total staged bytes (0 = unlimited); stages beyond
	// it evict the least-recently staged keys.
	Capacity int
	order    []string // insertion order for eviction
}

// NewStageManager builds an empty manager with the given capacity in
// bytes (0 = unlimited).
//
//lint:ignore deadcode S17 names grid data staging; no experiment stages data yet
func NewStageManager(capacity int) *StageManager {
	return &StageManager{staged: map[string]*stagedData{}, Capacity: capacity}
}

// Stage records a dataset as resident. Staging an existing key refreshes
// its size. It returns the bytes that must cross the link now (0 when the
// key was already staged with the same size).
func (s *StageManager) Stage(key string, bytes int) (int, error) {
	if key == "" {
		return 0, fmt.Errorf("grid: staging needs a key")
	}
	if bytes < 0 {
		return 0, fmt.Errorf("grid: negative staged size")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.staged[key]; ok {
		if d.bytes == bytes {
			return 0, nil
		}
		delta := bytes - d.bytes
		d.bytes = bytes
		if delta < 0 {
			delta = 0
		}
		s.evictLocked()
		return delta, nil
	}
	s.staged[key] = &stagedData{bytes: bytes}
	s.order = append(s.order, key)
	s.evictLocked()
	return bytes, nil
}

// evictLocked enforces Capacity, oldest first. Callers hold s.mu.
func (s *StageManager) evictLocked() {
	if s.Capacity <= 0 {
		return
	}
	total := 0
	for _, d := range s.staged {
		total += d.bytes
	}
	for total > s.Capacity && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if d, ok := s.staged[victim]; ok {
			total -= d.bytes
			delete(s.staged, victim)
		}
	}
}

// Resident reports whether a dataset is staged and its size.
func (s *StageManager) Resident(key string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.staged[key]
	if !ok {
		return 0, false
	}
	d.hits++
	return d.bytes, true
}

// Hits reports how many times a staged key has been reused.
func (s *StageManager) Hits(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.staged[key]; ok {
		return d.hits
	}
	return 0
}

// Evict removes a dataset.
func (s *StageManager) Evict(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.staged, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// StagedBytes sums resident data.
func (s *StageManager) StagedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, d := range s.staged {
		total += d.bytes
	}
	return total
}

// SubmitStaged submits a job whose input may already be resident: when
// key is staged, the job's InputBytes do not cross the link (they are
// replaced by zero), otherwise the input is transferred and staged for
// next time.
//
//lint:ignore deadcode S17 names grid data staging; no experiment stages data yet
func (c *Cluster) SubmitStaged(s *StageManager, key string, job Job) (Placement, error) {
	if s != nil && key != "" {
		if _, ok := s.Resident(key); ok {
			job.InputBytes = 0
		} else if _, err := s.Stage(key, job.InputBytes); err != nil {
			return Placement{}, err
		}
	}
	return c.Submit(job)
}
