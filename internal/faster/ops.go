package faster

import "repro/internal/epoch"

// This file implements the per-operation CPR logic of Algs. 4 and 5 (App. B)
// plus the coarse-grained variant of App. C, executed in a session:
//
//   - rest:        normal FASTER processing, records carry the rest version.
//   - prepare:     operations belong to commit version v; encountering a
//                  v+1 record or a failed shared-latch acquisition means the
//                  CPR shift has begun (the op aborts to v+1 and the session
//                  refreshes immediately).
//   - in-progress / wait-pending / wait-flush: fresh operations belong to
//                  v+1 and must never update a version-≤v record in place;
//                  the hand-off is guarded by bucket latches (fine-grained)
//                  or the safe-read-only marker (coarse-grained).
//   - v-completions: pending version-v operations (async I/O, fuzzy-region
//                  parks) complete as version v during later phases, holding
//                  their shared latches until done.
//
// The paths differ in what they check before the update and in what they do
// with a Pending after it; the update itself — the switch on the HybridLog
// region of the key's record — is one routine, update, and a record it writes
// reaches the index through one routine, install (session.go).

// statusRetry is an internal sentinel: dispatch runs the op again.
const statusRetry Status = 255

// dispatch drives op to a terminal status or Pending by the session's view of
// the phase and the op's version, running it again while a path answers
// statusRetry; what a terminal op holds is released by finish. The default
// route is a current-version operation outside the prepare gate: at rest, or a
// version-v operation completing once the commit is past prepare (a counted op
// retried during prepare included; wait-pending semantics, Sec. 6.2.3). The
// two differ in one thing: past rest the walk skips v+1 records — they are not
// part of this op's commit.
func (sess *Session) dispatch(op *pendingOp) Status {
	for {
		epoch.YieldAt(epoch.SiteDispatch)
		if op.version < sess.view.Version {
			// The commit this op belonged to has fully completed (its pending
			// work drained before wait-flush); treat it as current-version work.
			op.version = sess.view.Version
		}
		var st Status
		switch {
		case op.version > sess.view.Version:
			st = sess.processFuture(op)
		case sess.view.Phase == Prepare && !op.counted:
			st = sess.processPrepare(op)
		case op.kind == opRead:
			st = sess.finishRead(op, sess.find(op, sess.view.Phase != Rest))
		default:
			st = sess.update(op, sess.find(op, sess.view.Phase != Rest))
		}
		if st != statusRetry {
			return st
		}
	}
}

// initialValue computes the value a missing-key update writes.
func (sess *Session) initialValue(op *pendingOp) []byte {
	if op.kind == opRMW {
		return sess.store.cfg.RMW.Initial(op.input)
	}
	return op.input
}

// value copies the found record's value into the session's scratch buffer. The
// record latch is a store to the header, and a page below the safe-read-only
// offset is flushed from its frame: mutable, a multi-word value is read under
// the latch (the offset cannot turn safe past the record before this thread
// refreshes); below safe-read-only, or a private copy, nothing changes and none
// is taken; fuzzy, a lagging thread may still update in place and the flush may
// begin at any moment, so only a one-word value can be read — else ok is false
// and the op parks (Pending), as an update in that region does (DESIGN "Pages
// are flushed from their frames").
func (sess *Session) value(r *findResult) (val []byte, ok bool) {
	if r.reg == regMutable {
		sess.scratch = r.rec.LatchedValue(sess.scratch[:0])
		return sess.scratch, true
	}
	sess.scratch = r.rec.Value(sess.scratch[:0])
	if r.reg == regFuzzy && len(sess.scratch) > 8 {
		return nil, false // several loads, possibly torn
	}
	return sess.scratch, true
}

// update is the one FASTER update (Sec. 5.1) every CPR path ends in, switched
// on the region the key's record was found in: nothing to update — write the
// initial value; mutable — in place; below the safe-read-only offset —
// read-copy-update; in the fuzzy region between — park; on storage — fetch it,
// unless the copy is in hand or the update is blind. New records carry the
// op's version. A version-v op completing past prepare may still update in
// place: fine-grained, its shared latch excludes v+1 copies on the bucket;
// coarse-grained, v+1 copies happen only below the safe-read-only offset and a
// mutable record is above it.
func (sess *Session) update(op *pendingOp, r *findResult) Status {
	switch r.reg {
	case regNone:
		if op.kind == opDelete {
			return NotFound
		}
	case regMutable:
		if r.rec.Version() == recVersion(op.version) {
			if sess.tryInPlace(op, r, false) {
				return Ok
			}
		} else if op.version <= sess.store.settled.Load() {
			// An older record once the store has settled. A copy of it decided
			// before may still be in flight, and it swaps itself in only under
			// the record latch and while the value it copied is unchanged
			// (install); so the update happens under the latch too, and only
			// while no copy has been swapped in since find.
			epoch.YieldAt(epoch.SiteRecordLock)
			r.rec.Lock()
			moved := entryAddr(r.slot.Load()) != entryAddr(r.entry)
			ok := !moved && sess.tryInPlace(op, r, true)
			r.rec.Unlock()
			switch {
			case moved:
				return statusRetry
			case ok:
				return Ok
			}
		}
		// Capacity exceeded, tombstoned or an older version before the store
		// settled: read-copy-update.
	case regFuzzy:
		return Pending
	case regDisk:
		if !r.rec.Valid() && op.kind == opRMW {
			return sess.issueIO(op, r.addr)
		}
	}
	return sess.install(op, r)
}

// tryInPlace performs an in-place mutable-region update, latched when the
// caller holds the record latch; false means the caller must fall back to
// read-copy-update.
func (sess *Session) tryInPlace(op *pendingOp, r *findResult, latched bool) bool {
	switch {
	case op.kind == opDelete:
		r.rec.SetTombstone()
		return true
	case r.rec.Tombstone():
		return false
	case op.kind == opUpsert && !latched:
		return r.rec.SetValue(op.input)
	}
	rmw := sess.store.cfg.RMW
	fn := func(cur []byte) []byte {
		if op.kind == opUpsert {
			return op.input
		}
		return rmw.Update(cur, op.input)
	}
	if latched {
		return r.rec.UpdateValueLatched(&sess.scratch, fn)
	}
	return r.rec.UpdateValue(&sess.scratch, fn)
}

// processPrepare handles a fresh version-v operation in the prepare phase
// (Alg. 4). Fine-grained transfer takes a shared bucket latch around the
// whole operation; detecting the shift (latch failure or a v+1 record)
// aborts the op to v+1 and refreshes immediately.
func (sess *Session) processPrepare(op *pendingOp) Status {
	st := sess.store
	if st.cfg.Transfer == FineGrained && !op.latched {
		if !st.index.trySharedLatch(op.hash) {
			return sess.shiftDetected(op)
		}
		op.latched = true
	}
	r := sess.find(op, false)
	if r.rec.Valid() && st.isFuture(r.rec.Version(), r.addr, sess.view.Version) {
		return sess.shiftDetected(op)
	}
	var s Status
	if op.kind == opRead {
		s = sess.finishRead(op, r)
	} else {
		s = sess.update(op, r)
	}
	if s == Pending {
		sess.markCounted(op)
	}
	return s
}

// markCounted registers op in the active commit's pending-v tally; such
// operations must complete before the commit's wait-flush phase.
func (sess *Session) markCounted(op *pendingOp) {
	if op.counted || !sess.store.machine.Running(op.version) {
		return
	}
	op.counted = true
	sess.store.pendingV.Add(1)
}

// shiftDetected implements the CPR_SHIFT_DETECTED path of Alg. 4: release
// any latch, remember that this serial belongs to v+1, refresh (entering
// in-progress), and retry the op as a v+1 operation. A refresh that leaves the
// session in prepare found no shift — the exclusive latch is a session's still
// in the previous commit — and the op retries in v.
func (sess *Session) shiftDetected(op *pendingOp) Status {
	if op.latched {
		sess.store.index.releaseSharedLatch(op.hash)
		op.latched = false
	}
	sess.abortedSerial = op.serial
	if sess.Refresh(); sess.view.Phase < InProgress {
		sess.abortedSerial = 0
	}
	op.version = sess.targetVersion()
	return statusRetry
}

// processFuture handles a v+1 operation during in-progress, wait-pending, or
// wait-flush (Alg. 5). Updates to version-≤v records are handed off via
// read-copy-update, guarded by the exclusive bucket latch (fine-grained) or
// the safe-read-only marker (coarse-grained) so no v+1 record is installed
// while a pending v operation on the bucket could still complete.
func (sess *Session) processFuture(op *pendingOp) Status {
	st, phase := sess.store, sess.view.Phase
	r := sess.find(op, false)
	if op.kind == opRead {
		return sess.finishRead(op, r)
	}
	if r.reg == regNone || r.rec.Valid() && st.isFuture(r.rec.Version(), r.addr, sess.view.Version) {
		// No record, or already a v+1 record: nothing to hand off.
		return sess.update(op, r)
	}
	// Version-≤v record (or cold record of unknown version): hand-off.
	if r.reg == regDisk && !r.rec.Valid() && op.kind == opRMW {
		// Blind updates need no record value; they still respect the gates.
		return sess.issueIO(op, r.addr)
	}
	if st.cfg.Transfer == FineGrained {
		switch phase {
		case InProgress:
			if !st.index.tryExclusiveLatch(op.hash) {
				return Pending
			}
			s := sess.install(op, r)
			st.index.releaseExclusiveLatch(op.hash)
			return s
		case WaitPending:
			if st.index.sharedCount(op.hash) != 0 {
				return Pending
			}
		}
		// WaitFlush, or a stale view after the commit completed.
		return sess.install(op, r)
	}
	// Coarse-grained (App. C): copy only records below the safe-read-only
	// marker, and only once no pending v operation can exist (wait-flush or
	// later) — one parked on a record in the fuzzy region would otherwise
	// complete after the copy, over it. A mutable or fuzzy v record waits.
	if (r.reg == regSafeRO || r.reg == regDisk) && phase >= WaitFlush {
		return sess.install(op, r)
	}
	return Pending
}

// finishRead resolves a read against a find result, delivering the value via
// op.val (finish passes it to the registered callback, issue returns it): a copy
// in the session's scratch buffer, overwritten by the session's next read or
// RMW.
func (sess *Session) finishRead(op *pendingOp, r *findResult) Status {
	switch r.reg {
	case regNone:
		return NotFound
	case regDisk:
		if !r.rec.Valid() {
			return sess.issueIO(op, r.addr)
		}
	}
	if r.rec.Tombstone() {
		return NotFound
	}
	var ok bool
	if op.val, ok = sess.value(r); !ok {
		return Pending
	}
	return Ok
}
