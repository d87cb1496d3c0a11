package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// Record kinds journaled to the WAL. Each record is one JSON object
// with a kind tag; unknown kinds and malformed bodies are tolerated on
// replay (counted, skipped) so a newer node can read an older log and
// vice versa.
const (
	kindCheckpoint = "ckpt"
	kindDeadLetter = "dead"
	kindRegister   = "reg"
	kindDeregister = "dereg"
)

// walRecord is the on-disk shape of one journal entry.
type walRecord struct {
	Kind string            `json:"k"`
	ID   string            `json:"id,omitempty"`   // checkpoint agent / deregistered name
	Snap json.RawMessage   `json:"snap,omitempty"` // checkpoint payload
	Dead *agent.DeadLetter `json:"dead,omitempty"`
	Reg  *Registration     `json:"reg,omitempty"`
}

// code writes a reg or dereg record as encoding/json does; any other sets
// Bad, and goes to encoding/json.
func (r *walRecord) code(c *ontology.JSON) {
	c.Str(`{"k":`, &r.Kind)
	if c.Opt(`,"id":`, r.ID != "") {
		c.Str("", &r.ID)
	}
	c.Bad = c.Bad || len(r.Snap) > 0 || r.Dead != nil || r.Reg != nil && r.Reg.Profile == nil
	if c.Opt(`,"reg":`, r.Reg != nil && !c.Bad) {
		c.Profile(`{"Profile":`, r.Reg.Profile)
		c.Time(`,"Expires":`, &r.Reg.Expires)
		c.Lit("}")
	}
	c.Lit("}")
}

// Registration is a journaled service advertisement: the profile plus
// the absolute lease expiry, so recovery can re-register with the
// remaining TTL (or skip the entry if the lease died while the node
// was down).
type Registration struct {
	Profile *ontology.Profile
	Expires time.Time
}

// snapshotFile is the compaction snapshot: the full recovered state as
// of segment Seg — replay resumes at Seg, older segments are garbage.
const snapshotName = "snapshot.json"

type snapshotFile struct {
	Seg           uint64
	Checkpoints   map[string]json.RawMessage
	DeadLetters   []agent.DeadLetter
	Registrations map[string]Registration
}

// StoreStats is a point-in-time snapshot of store activity.
type StoreStats struct {
	WAL WALStats
	// Checkpoints / DeadLetters / Registrations are current in-memory
	// mirror sizes.
	Checkpoints   int
	DeadLetters   int
	Registrations int
	// BadRecords counts replayed records that were CRC-clean but not
	// decodable (version skew, partial schema) — skipped, not fatal.
	BadRecords uint64
	// AppendErrors counts journal writes that failed (disk faults). The
	// in-memory state stays correct; only durability of those entries
	// is lost.
	AppendErrors uint64
}

// Store is the durable mirror of a node's soft state: agent
// checkpoints, the dead-letter ring, and discovery registrations, all
// journaled through one WAL and compacted into a snapshot. Open it,
// then AttachPlatform / AttachRegistry — recovery replays into them and
// the hooks keep journaling from then on.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	wal   *WAL
	ckpts map[agent.ID]json.RawMessage
	dead  obs.Ring[agent.DeadLetter] // allocated at the first letter
	regs  map[string]Registration

	bad       uint64
	appendErr uint64
}

// Open recovers a store from dir: snapshot first (if present), then
// every WAL record at or after the snapshot's segment watermark. Torn
// tails and malformed records are tolerated — a crashed node always
// boots with the surviving prefix of its history.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir:   dir,
		opts:  opts,
		ckpts: map[agent.ID]json.RawMessage{},
		regs:  map[string]Registration{},
	}
	var firstSeg uint64
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			// A torn snapshot (crash mid-compaction loses the rename
			// atomicity only on exotic filesystems) degrades to full
			// WAL replay, not a refusal to boot.
			s.bad++
		} else {
			firstSeg = snap.Seg
			for id, raw := range snap.Checkpoints {
				s.ckpts[agent.ID(id)] = raw
			}
			for _, dl := range snap.DeadLetters {
				s.pushDead(dl)
			}
			for name, reg := range snap.Registrations {
				s.regs[name] = reg
			}
		}
	}
	wal, err := OpenWAL(dir, firstSeg, opts, func(seg uint64, rec []byte) {
		var r walRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			s.bad++
			return
		}
		s.apply(r)
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// apply folds one record, replayed or just journaled, into the in-memory
// mirror.
func (s *Store) apply(r walRecord) {
	switch r.Kind {
	case kindCheckpoint:
		if r.ID == "" || len(r.Snap) == 0 {
			s.bad++
			return
		}
		s.ckpts[agent.ID(r.ID)] = r.Snap
	case kindDeadLetter:
		if r.Dead == nil {
			s.bad++
			return
		}
		s.pushDead(*r.Dead)
	case kindRegister:
		if r.Reg == nil || r.Reg.Profile == nil || r.Reg.Profile.Name == "" {
			s.bad++
			return
		}
		s.regs[r.Reg.Profile.Name] = *r.Reg
	case kindDeregister:
		if r.ID == "" {
			s.bad++
			return
		}
		delete(s.regs, r.ID)
	default:
		s.bad++
	}
}

// pushDead mirrors one dead letter, keeping the newest
// agent.DefaultDeadLetterCap like the platform's ring.
func (s *Store) pushDead(dl agent.DeadLetter) {
	if s.dead.Len() == 0 { // never empty again once allocated
		s.dead = obs.NewRing[agent.DeadLetter](agent.DefaultDeadLetterCap)
	}
	s.dead.Push(dl)
}

// journal appends one record to the WAL and mirrors the record it was
// handed, not the bytes, which would read back the same. An
// append failure (injected or real disk fault) is counted, not
// propagated: the live node keeps running on its in-memory state and
// only that entry's durability is lost.
func (s *Store) journal(r walRecord) {
	rec, err := ontology.Encode(r, (*walRecord).code, 512)
	if err != nil {
		s.mu.Lock()
		s.appendErr++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apply(r)
	if err := s.wal.Append(rec); err != nil {
		s.appendErr++
	}
}

// JournalCheckpoint records an agent checkpoint. Snapshots must be
// JSON-marshalable; agent.RecoveredSnapshot and json.RawMessage pass
// through as raw bytes (a recovered snapshot re-journals verbatim), copied
// so that the mirror's are its own.
func (s *Store) JournalCheckpoint(id agent.ID, snapshot any) {
	var raw json.RawMessage
	switch v := snapshot.(type) {
	case agent.RecoveredSnapshot:
		raw = append(raw, v...)
	case json.RawMessage:
		raw = append(raw, v...)
	default:
		b, err := json.Marshal(snapshot)
		if err != nil {
			s.mu.Lock()
			s.appendErr++
			s.mu.Unlock()
			return
		}
		raw = b
	}
	s.journal(walRecord{Kind: kindCheckpoint, ID: string(id), Snap: raw})
}

// JournalDeadLetter records an undeliverable envelope.
func (s *Store) JournalDeadLetter(dl agent.DeadLetter) {
	s.journal(walRecord{Kind: kindDeadLetter, Dead: &dl})
}

// JournalRegistration records a service advertisement (or lease renewal
// — the latest expiry wins on replay).
func (s *Store) JournalRegistration(p *ontology.Profile, expires time.Time) {
	s.journal(walRecord{Kind: kindRegister, Reg: &Registration{Profile: p, Expires: expires}})
}

// JournalDeregister records an explicit service withdrawal.
func (s *Store) JournalDeregister(name string) {
	s.journal(walRecord{Kind: kindDeregister, ID: name})
}

// AttachPlatform wires the store under a platform: recovered dead
// letters refill the ring, recovered checkpoints seed their agents
// (delivered to Restore as agent.RecoveredSnapshot), and from then on
// every checkpoint and dead letter is journaled. An agent restart
// forces an fsync — the crashing agent's last checkpoint is exactly the
// one that must not be lost. Call before registering agents and before
// traffic starts; existing hooks are chained, not replaced.
func (s *Store) AttachPlatform(p *agent.Platform) {
	p.RestoreDeadLetters(s.DeadLetters())
	for id, raw := range s.Checkpoints() {
		p.SeedCheckpoint(id, agent.RecoveredSnapshot(raw))
	}
	prevCkpt := p.OnCheckpoint
	p.OnCheckpoint = func(id agent.ID, snapshot any) {
		s.JournalCheckpoint(id, snapshot)
		if prevCkpt != nil {
			prevCkpt(id, snapshot)
		}
	}
	prevDead := p.OnDeadLetter
	p.OnDeadLetter = func(dl agent.DeadLetter) {
		s.JournalDeadLetter(dl)
		if prevDead != nil {
			prevDead(dl)
		}
	}
	prevRestart := p.OnAgentRestart
	p.OnAgentRestart = func(id agent.ID, err error) {
		_ = s.Sync()
		if prevRestart != nil {
			prevRestart(id, err)
		}
	}
}

// AttachRegistry wires the store under a discovery registry: recovered
// registrations whose leases are still live are re-registered with
// their remaining TTL (the node re-advertises its services on rejoin),
// and from then on every Register/Renew/Deregister is journaled.
// Existing hooks are chained, not replaced.
func (s *Store) AttachRegistry(r *discovery.Registry) {
	// Replay before installing hooks: recovery must not re-journal what
	// the journal just said.
	now := s.opts.Clock.Now()
	for _, reg := range s.Registrations() {
		ttl := reg.Expires.Sub(now)
		if ttl <= 0 {
			continue // lease died while the node was down
		}
		_, _ = r.Register(reg.Profile, ttl)
	}
	prevReg := r.OnRegister
	r.OnRegister = func(p *ontology.Profile, l discovery.Lease) {
		s.JournalRegistration(p, l.Expires)
		if prevReg != nil {
			prevReg(p, l)
		}
	}
	prevDereg := r.OnDeregister
	r.OnDeregister = func(name string) {
		s.JournalDeregister(name)
		if prevDereg != nil {
			prevDereg(name)
		}
	}
}

// Compact folds the journal into a fresh snapshot: rotate the WAL (the
// new segment index becomes the snapshot watermark), write the full
// state to snapshot.json via tmp-write + fsync + atomic rename, then
// delete the segments the snapshot covers. Crash-safe at every step: a
// crash before the rename recovers from the old snapshot + all
// segments, after it from the new snapshot + the tail.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	snap := snapshotFile{
		Seg:           seg,
		Checkpoints:   map[string]json.RawMessage{},
		Registrations: map[string]Registration{},
	}
	for id, raw := range s.ckpts {
		snap.Checkpoints[string(id)] = raw
	}
	snap.DeadLetters = s.dead.Newest(agent.DefaultDeadLetterCap)
	for name, reg := range s.regs {
		snap.Registrations[name] = reg
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("durable: marshal snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: install snapshot: %w", err)
	}
	syncDir(s.dir)
	return s.wal.RemoveBefore(seg)
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Sync forces journaled records to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Sync()
}

// Close fsyncs and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore blockheld the syncer proc WAL.Close waits for never takes Store.mu, and holding it serializes Close against appenders
	return s.wal.Close()
}

// AttachMetrics publishes the WAL's counts in reg (durable_wal_* series).
func (s *Store) AttachMetrics(reg *obs.Registry) {
	s.wal.AttachMetrics(reg)
}

// Checkpoints returns a copy of the recovered/journaled checkpoint map.
func (s *Store) Checkpoints() map[agent.ID]json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[agent.ID]json.RawMessage, len(s.ckpts))
	for id, raw := range s.ckpts {
		out[id] = raw
	}
	return out
}

// DeadLetters returns a copy of the journaled dead letters, oldest
// first (bounded, like the platform's ring, by agent.DefaultDeadLetterCap).
func (s *Store) DeadLetters() []agent.DeadLetter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead.Newest(agent.DefaultDeadLetterCap)
}

// Registrations returns a copy of the journaled advertisements by name.
func (s *Store) Registrations() map[string]Registration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Registration, len(s.regs))
	for name, reg := range s.regs {
		out[name] = reg
	}
	return out
}

// Stats snapshots store and WAL activity.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		WAL:           s.wal.Stats(),
		Checkpoints:   len(s.ckpts),
		DeadLetters:   s.dead.Len(),
		Registrations: len(s.regs),
		BadRecords:    s.bad,
		AppendErrors:  s.appendErr,
	}
}

// Summary is the one-line shutdown/boot report pgridd prints.
func (s *Store) Summary() string {
	st := s.Stats()
	return fmt.Sprintf("durable: seg=%d appends=%d replayed=%d truncated=%d ckpts=%d deadletters=%d regs=%d bad=%d appenderr=%d",
		st.WAL.ActiveSegment, st.WAL.Appends, st.WAL.Replayed, st.WAL.Truncated,
		st.Checkpoints, st.DeadLetters, st.Registrations, st.BadRecords, st.AppendErrors)
}
