package server

import (
	"errors"
	"fmt"
	"slices"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// Errors returned by the two-shot cross-shard commit participant.
var (
	// ErrPinned rejects a commit or prepare that touches an object held
	// by another in-flight cross-shard prepare; the caller should treat
	// it like a conflict and retry after the owning decision lands.
	ErrPinned = errors.New("server: object pinned by an in-flight cross-shard prepare")
	// ErrUnknownPrepare rejects a commit decision whose token was never
	// prepared here or has already been timeout-aborted — committing it
	// would break atomicity, so the coordinator must abort fleet-wide.
	ErrUnknownPrepare = errors.New("server: unknown or expired prepare token")
	// ErrAlreadyDecided rejects a decision that contradicts one already
	// applied for the same token.
	ErrAlreadyDecided = errors.New("server: decision contradicts the one already applied")
)

// PrepareTTL is the number of broadcast cycles a prepared cross-shard
// transaction may stay undecided before the shard aborts it
// unilaterally and releases its pins. The timeout is counted on the
// shard's own cycle clock, so a dead coordinator cannot wedge the
// shard: its pins evaporate and a late commit decision fails loudly
// with ErrUnknownPrepare.
const PrepareTTL = 4

// prepared is shot one of the two-shot commit: an admitted, pinned, but
// not yet installed cross-shard update transaction.
type prepared struct {
	update
	// remote marks a transaction whose global read set extends beyond
	// this shard: on commit the control state degrades conservatively
	// via ApplyRemote (Theorem 2's dep column is not locally evaluable).
	remote  bool
	expires cmatrix.Cycle // timeout-aborted once the cycle clock passes this
}

// PrepareUpdate is shot one of the cross-shard commit: SubmitUpdate's
// shape and admit over the shard-local projection of an update
// transaction, with the install left to DecideUpdate. Until that
// decision (or the TTL) the objects read and written stay pinned, so no
// interleaved commit can invalidate what was admitted. req is valid for
// the duration of the call (protocol.Uplink): the prepare keeps a copy
// of its writes. remote marks a transaction whose global read set is
// not fully local (see prepared.remote). Duplicate prepares of a live
// token are idempotent.
func (s *Server) PrepareUpdate(token uint64, req protocol.UpdateRequest, remote bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.cShardPrepares.Inc()
	u, err := s.shape(req)
	if err != nil {
		return err
	}
	if _, live := s.prepares[token]; live {
		return nil // duplicate prepare frame
	}
	if _, done := s.decided[token]; done {
		return fmt.Errorf("%w: token %d already decided", ErrAlreadyDecided, token)
	}
	if err := s.admitLocked(req.Reads, u.writeSet, true); err != nil {
		s.cShardPrepareRefused.Inc()
		s.emitShard(obs.EvShardPrepare, token, 0)
		return err
	}
	if s.prepares == nil {
		s.prepares = map[uint64]*prepared{}
		s.pinned = map[int]uint64{}
		s.decided = map[uint64]decision{}
	}
	u.writes = protocol.CloneWrites(u.writes)
	s.prepares[token] = &prepared{update: u, remote: remote, expires: s.cycle + PrepareTTL}
	for _, set := range [][]int{u.readSet, u.writeSet} {
		for _, obj := range set {
			s.pinned[obj] = token
		}
	}
	s.emitShard(obs.EvShardPrepare, token, 1)
	return nil
}

// decision remembers a settled token so duplicate decision frames stay
// idempotent; entries are swept once the cycle clock passes keepUntil.
type decision struct {
	commit    bool
	keepUntil cmatrix.Cycle
}

// decidedRetention is how many cycles a settled token is remembered for
// duplicate-decision detection.
const decidedRetention = 64

// DecideUpdate is shot two: the coordinator's fleet-wide decision for a
// prepared token. commit installs the pinned transaction at the current
// cycle (conservatively via ApplyRemote when its reads were not fully
// local); either way the pins are released. Duplicate decisions are
// idempotent; a decision contradicting the applied one returns
// ErrAlreadyDecided. An abort for an unknown token is a no-op (the
// prepare may have expired, which is itself an abort), but a commit for
// an unknown token returns ErrUnknownPrepare — atomicity is already
// lost and the caller must surface it.
func (s *Server) DecideUpdate(token uint64, commit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	p, live := s.prepares[token]
	if !live {
		if d, done := s.decided[token]; done {
			if d.commit != commit {
				return fmt.Errorf("%w: token %d settled as commit=%v", ErrAlreadyDecided, token, d.commit)
			}
			return nil
		}
		if commit {
			return fmt.Errorf("%w: token %d", ErrUnknownPrepare, token)
		}
		return nil
	}
	s.settleLocked(token, p, commit)
	return nil
}

// settleLocked applies a decision to a live prepare: its pins go, the
// token is remembered, and on commit the parked update is installed (a
// read-only participant has nothing to install). Callers hold mu.
func (s *Server) settleLocked(token uint64, p *prepared, commit bool) {
	delete(s.prepares, token)
	for _, set := range [][]int{p.readSet, p.writeSet} {
		for _, obj := range set {
			if s.pinned[obj] == token {
				delete(s.pinned, obj)
			}
		}
	}
	s.decided[token] = decision{commit: commit, keepUntil: s.cycle + decidedRetention}
	if commit {
		s.installLocked(p.update, p.remote)
		s.cShardCommits.Inc()
		s.emitShard(obs.EvShardDecide, token, 1)
	} else {
		s.cShardAborts.Inc()
		s.emitShard(obs.EvShardDecide, token, 0)
	}
}

// emitShard traces one shot of the two-shot commit, framed by the token.
func (s *Server) emitShard(kind obs.EventKind, token uint64, verdict int64) {
	s.trace.Emit(kind, obs.ActorServer, int64(s.cycle), int32(token&0x7fffffff), verdict)
}

// expirePreparesLocked timeout-aborts every prepare the cycle clock has
// passed and sweeps stale decision records. Callers hold mu; StartCycle
// runs it right after advancing the cycle, so a prepare with TTL t left
// undecided through t cycle starts is gone before cycle t+1's image.
func (s *Server) expirePreparesLocked() {
	if len(s.prepares) == 0 && len(s.decided) == 0 {
		return
	}
	// Deterministic sweep order: tokens ascending.
	var expired []uint64
	for token, p := range s.prepares {
		if s.cycle > p.expires {
			expired = append(expired, token)
		}
	}
	slices.Sort(expired)
	for _, token := range expired {
		s.cShardExpired.Inc()
		s.settleLocked(token, s.prepares[token], false)
	}
	for token, d := range s.decided {
		if s.cycle > d.keepUntil {
			delete(s.decided, token)
		}
	}
}

// PinnedBy reports the token holding obj (0, false when unpinned).
func (s *Server) PinnedBy(obj int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.pinned[obj]
	return owner, ok
}
