package node

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// This file hosts the optimistic concurrency-control engines (OCC,
// MV-TO, and the cold path of the hot/cold hybrid HAD); the
// transaction manager routes each access either here or to the
// coupling mode's native 2PL protocol (gemCC, pclCC, leCC). The
// engines implement the cost model described in DESIGN.md §12:
//
//   - under close coupling an optimistic metadata lookup is one GEM
//     entry read without lock-handling CPU (no queue management, no
//     wait registration), while a 2PL lock operation is LockInstr
//     instructions plus two entry accesses (read + Compare&Swap);
//   - validation and publication are one combined operation each:
//     LockInstr instructions plus one entry access per page of the
//     validated (published) set;
//   - under PCL, metadata of a local partition costs a CPU burst and
//     remote partitions cost one message round trip per access and one
//     batched round trip per partition at validation; publication
//     rides on one-way messages like the 2PL lock release.
//
// All optimistic metadata work is attributed to attrib.ResCC; the HAD
// hot path goes through the native lock protocol and stays ResLock.

// ccMeta returns the coupling mode's shared coherency metadata of a
// page: its GLT entry under close coupling, its GLA partition entry
// under PCL.
func (s *System) ccMeta(page model.PageID) *pageMeta {
	if s.params.Coupling == CouplingPCL {
		return s.pclMetaOf(s.gla.GLA(page), page)
	}
	return s.gltMetaOf(page)
}

// publishMeta records a committed write in the page's metadata. It is
// monotonic: a stale publish from the parallel-validation window cannot
// regress the committed sequence number.
func publishMeta(meta *pageMeta, seq uint64, owner int) {
	if seq > meta.Seq {
		meta.Seq = seq
		meta.Owner = owner
	}
}

// ccGEMOp charges one optimistic metadata operation against GEM: instr
// lock-handling instructions held on the CPU plus entries entry
// accesses, attributed to ResCC on the critical path.
func (n *Node) ccGEMOp(t *txn, instr float64, entries int) {
	svcStart := n.sys.env.Now()
	n.gemEntryOp(t.proc, instr, entries)
	t.phases.Add(trace.PhaseLockSvc, n.sys.env.Now()-svcStart)
	if t.cp != nil {
		svc := time.Duration(entries) * n.sys.gemDev.EntryAccessTime()
		if instr > 0 {
			svc += n.cpu.ServiceTime(instr)
		}
		t.cp.AddWindow(attrib.ResCC, n.sys.env.Now()-svcStart, svc)
	}
}

// ccCPUOp charges a PCL-side metadata CPU burst, attributed to ResCC.
func (n *Node) ccCPUOp(t *txn, instr float64) {
	if instr <= 0 {
		return
	}
	svcStart := n.sys.env.Now()
	n.cpu.Exec(t.proc, instr)
	t.phases.Add(trace.PhaseLockSvc, n.sys.env.Now()-svcStart)
	t.cp.AddWindow(attrib.ResCC, n.sys.env.Now()-svcStart, n.cpu.ServiceTime(instr))
}

// ccConflict emits the cc-abort trace instant and builds the typed
// conflict error that restarts the transaction with backoff.
func (n *Node) ccConflict(t *txn, page model.PageID, reason cc.Reason) error {
	if tr := n.sys.tracer; tr.Enabled() {
		tr.Instant(n.track, int64(t.id), "cc", "cc-abort", n.sys.env.Now(), string(reason))
	}
	return &cc.Conflict{Reason: reason, Page: page}
}

// optEngine is the optimistic engine family: backward-validation OCC
// (kinds occ and had; HAD sends only its cold pages here) and
// multiversion timestamp ordering (kind mvto). Accesses record the
// committed version they observed in t.cct; a costed validation at
// end-of-transaction re-checks the set, and commit publishes the new
// versions through the coherency metadata. No attempt holds global
// state between accesses, so a node crash or an abort has nothing to
// sweep.
type optEngine struct {
	n    *Node
	kind cc.Kind
}

// repeat is the outcome of a non-first touch: the recorded observation
// still stands and the buffered copy cannot have been dropped below it
// without a refetch, so the access is free (mirrors the 2PL
// lock-already-sufficient path).
func (e *optEngine) repeat(page model.PageID) cc.Outcome {
	out := cc.Outcome{Owner: -1}
	if fr := e.n.pool.Peek(page); fr != nil {
		out.Seq = fr.SeqNo
	}
	return out
}

// access mediates one page access in read or write mode and reports
// whether it is the attempt's first touch of the page (buffer hit-rate
// accounting). The error is a *cc.Conflict (abort and restart with
// backoff) or one of the transaction manager's abort sentinels.
func (e *optEngine) access(t *txn, page model.PageID, write bool) (cc.Outcome, bool, error) {
	if t.killed {
		return cc.Outcome{}, false, errKilled
	}
	if t.cct.Touched(page) {
		if write && !t.cct.Writes[page] {
			if err := e.upgrade(t, page); err != nil {
				return cc.Outcome{}, false, err
			}
		}
		return e.repeat(page), false, nil
	}
	if e.n.sys.params.Coupling == CouplingPCL {
		return e.accessPCL(t, page, write)
	}
	return e.accessGEM(t, page, write)
}

// accessGEM mediates a first-touch access under close coupling: one
// GEM entry read of the page's coherency metadata (no lock-handling
// CPU), recording the observed committed version.
func (e *optEngine) accessGEM(t *txn, page model.PageID, write bool) (cc.Outcome, bool, error) {
	ct := &t.cct
	n := e.n
	sys := n.sys
	n.ccGEMOp(t, 0, 1)
	meta := sys.ccMeta(page)
	seq := meta.Seq
	out := cc.Outcome{Seq: seq, Owner: -1}
	if !sys.params.Force {
		out.Owner = meta.Owner
	}
	if e.kind == cc.KindMVTO {
		if write {
			wts, ok, reason := sys.ccVersions.WriteObserve(page, ct.TS, seq)
			if !ok {
				return cc.Outcome{}, true, n.ccConflict(t, page, reason)
			}
			ct.RecordRead(page, wts)
			ct.RecordWrite(page)
			return out, true, nil
		}
		v, old := sys.ccVersions.Read(page, ct.TS, seq)
		if old {
			// Version-list traversal: one more entry access; old
			// versions come from permanent storage, not a node buffer.
			n.ccGEMOp(t, 0, 1)
			out.Owner = -1
		}
		out.Seq = v.Seq
		ct.RecordRead(page, v.WTS)
		return out, true, nil
	}
	ct.RecordRead(page, seq)
	if write {
		ct.RecordWrite(page)
	}
	return out, true, nil
}

// accessPCL mediates a first-touch access under PCL: metadata of a
// local partition is read with a CPU burst; remote partitions cost one
// message round trip at the serving node.
func (e *optEngine) accessPCL(t *txn, page model.PageID, write bool) (cc.Outcome, bool, error) {
	ct := &t.cct
	n := e.n
	sys := n.sys
	gla := sys.gla.GLA(page)
	home := sys.glaHomeOf(gla)
	if sys.ctl != nil {
		sys.ctl.observePart(gla, n.id)
	}
	if home == n.id {
		// Local partition: an entry probe without queue management,
		// half a lock operation's path length.
		n.ccCPUOp(t, sys.params.LockInstr/2)
		seq := sys.pclMetaOf(gla, page).Seq
		out := cc.Outcome{Seq: seq, Owner: -1}
		if e.kind == cc.KindMVTO {
			if write {
				wts, ok, reason := sys.ccVersions.WriteObserve(page, ct.TS, seq)
				if !ok {
					return cc.Outcome{}, true, n.ccConflict(t, page, reason)
				}
				ct.RecordRead(page, wts)
				ct.RecordWrite(page)
				return out, true, nil
			}
			v, _ := sys.ccVersions.Read(page, ct.TS, seq)
			out.Seq = v.Seq
			ct.RecordRead(page, v.WTS)
			return out, true, nil
		}
		ct.RecordRead(page, seq)
		if write {
			ct.RecordWrite(page)
		}
		return out, true, nil
	}

	op := ccOpLookup
	if e.kind == cc.KindMVTO {
		op = ccOpVersionRead
		if write {
			op = ccOpVersionWrite
		}
	}
	wait, err := e.remoteOp(t, home, ccOpMsg{
		Owner: t.owner, Op: op, GLA: gla, TS: ct.TS,
		Pages: []ccOpPage{{Page: page}},
	})
	if err != nil {
		return cc.Outcome{}, true, err
	}
	if !wait.ccOK {
		return cc.Outcome{}, true, n.ccConflict(t, page, wait.ccReason)
	}
	out := cc.Outcome{Seq: wait.seq, Owner: -1}
	if wait.ownerHasCopy && !sys.params.Force {
		out.Owner = home
	}
	if e.kind == cc.KindMVTO {
		ct.RecordRead(page, wait.ccWTS)
	} else {
		ct.RecordRead(page, wait.seq)
	}
	if write {
		ct.RecordWrite(page)
	}
	return out, true, nil
}

// upgrade registers a write on a page first touched in read mode. OCC
// needs no extra metadata work (backward validation covers the read
// observation); MV-TO must run its write admission check.
func (e *optEngine) upgrade(t *txn, page model.PageID) error {
	ct := &t.cct
	n := e.n
	sys := n.sys
	if e.kind == cc.KindMVTO {
		if sys.params.Coupling == CouplingPCL {
			gla := sys.gla.GLA(page)
			if home := sys.glaHomeOf(gla); home != n.id {
				wait, err := e.remoteOp(t, home, ccOpMsg{
					Owner: t.owner, Op: ccOpVersionWrite, GLA: gla, TS: ct.TS,
					Pages: []ccOpPage{{Page: page}},
				})
				if err != nil {
					return err
				}
				if !wait.ccOK {
					return n.ccConflict(t, page, wait.ccReason)
				}
				ct.Reads[page] = wait.ccWTS
				ct.RecordWrite(page)
				return nil
			}
			n.ccCPUOp(t, sys.params.LockInstr/2)
		} else {
			n.ccGEMOp(t, 0, 1)
		}
		seq := sys.ccMeta(page).Seq
		wts, ok, reason := sys.ccVersions.WriteObserve(page, ct.TS, seq)
		if !ok {
			return n.ccConflict(t, page, reason)
		}
		ct.Reads[page] = wts
	}
	ct.RecordWrite(page)
	return nil
}

// validate runs backward validation at end-of-transaction, before the
// commit log write: OCC re-checks every recorded access against the
// committed metadata, MV-TO re-checks its write set first-committer-
// wins. One combined metadata operation is charged per partition.
func (e *optEngine) validate(t *txn) error {
	ct := &t.cct
	n := e.n
	sys := n.sys
	var set map[model.PageID]uint64
	if e.kind == cc.KindMVTO {
		if len(ct.Writes) == 0 {
			return nil
		}
		set = make(map[model.PageID]uint64, len(ct.Writes))
		for page := range ct.Writes {
			set[page] = ct.Reads[page]
		}
	} else {
		set = ct.Reads
	}
	if len(set) == 0 {
		return nil
	}
	n.ccValidations++
	start := sys.env.Now()
	pages := sortedPages(set)
	var conflict error
	if sys.params.Coupling == CouplingPCL {
		conflict = e.validatePCL(t, pages, set)
	} else {
		n.ccGEMOp(t, sys.params.LockInstr, len(pages))
		for _, page := range pages {
			if e.kind == cc.KindMVTO {
				seq := sys.ccMeta(page).Seq
				if ok, reason := sys.ccVersions.Recheck(page, ct.TS, set[page], seq); !ok {
					conflict = n.ccConflict(t, page, reason)
					break
				}
			} else if sys.ccMeta(page).Seq != set[page] {
				conflict = n.ccConflict(t, page, occReason(t, page))
				break
			}
		}
	}
	if tr := sys.tracer; tr.Enabled() {
		arg := "ok"
		if conflict != nil {
			arg = "conflict"
		}
		tr.Span(n.track, int64(t.id), "cc", "cc-validate", start, sys.env.Now(), arg)
	}
	if conflict != nil {
		if _, isCC := conflict.(*cc.Conflict); isCC {
			n.ccValidationFails++
		}
	}
	return conflict
}

// occReason classifies an OCC validation failure: a stale page of the
// publish set is a write-write conflict, a stale read observation a
// plain validation conflict.
func occReason(t *txn, page model.PageID) cc.Reason {
	if t.cct.Writes[page] {
		return cc.ReasonWW
	}
	return cc.ReasonValidation
}

// validatePCL validates the set partition by partition: local GLAs
// with one CPU burst, remote GLAs with one batched round trip each.
func (e *optEngine) validatePCL(t *txn, pages []model.PageID, set map[model.PageID]uint64) error {
	n := e.n
	sys := n.sys
	perGLA := make(map[int][]ccOpPage)
	for _, page := range pages {
		gla := sys.gla.GLA(page)
		perGLA[gla] = append(perGLA[gla], ccOpPage{Page: page, Recorded: set[page]})
	}
	for _, gla := range sortedKeys(perGLA) {
		batch := perGLA[gla]
		if home := sys.glaHomeOf(gla); home != n.id {
			wait, err := e.remoteOp(t, home, ccOpMsg{
				Owner: t.owner, Op: ccOpValidate, GLA: gla, TS: t.cct.TS,
				MVTO: e.kind == cc.KindMVTO, Pages: batch,
			})
			if err != nil {
				return err
			}
			if !wait.ccOK {
				reason := wait.ccReason
				if reason == "" {
					reason = occReason(t, wait.ccPage)
				}
				return n.ccConflict(t, wait.ccPage, reason)
			}
			continue
		}
		n.ccCPUOp(t, sys.params.LockInstr)
		for _, op := range batch {
			if e.kind == cc.KindMVTO {
				seq := sys.ccMeta(op.Page).Seq
				if ok, reason := sys.ccVersions.Recheck(op.Page, t.cct.TS, op.Recorded, seq); !ok {
					return n.ccConflict(t, op.Page, reason)
				}
			} else if sys.ccMeta(op.Page).Seq != op.Recorded {
				return n.ccConflict(t, op.Page, occReason(t, op.Page))
			}
		}
	}
	return nil
}

// publish makes the attempt's writes visible: new sequence numbers
// (and, for MV-TO, committed versions) are installed in the coherency
// metadata, one combined operation under close coupling, one one-way
// message per remote partition under PCL (NOFORCE carries the pages,
// mirroring the 2PL lock-release propagation).
func (e *optEngine) publish(t *txn) {
	ct := &t.cct
	n := e.n
	sys := n.sys
	if len(ct.Writes) == 0 {
		return
	}
	pages := sortedPages(ct.Writes)
	if sys.params.Coupling == CouplingPCL {
		e.publishPCL(t, pages)
		return
	}
	n.ccGEMOp(t, sys.params.LockInstr, len(pages))
	owner := n.id
	if sys.params.Force {
		owner = -1
	}
	for _, page := range pages {
		mod := t.modified[page]
		if mod == nil {
			continue
		}
		meta := sys.ccMeta(page)
		if e.kind == cc.KindMVTO {
			sys.ccVersions.Commit(page, ct.TS, mod.frame.SeqNo, meta.Seq)
		}
		publishMeta(meta, mod.frame.SeqNo, owner)
		sys.oracle.commit(page, mod.frame.SeqNo)
	}
}

func (e *optEngine) publishPCL(t *txn, pages []model.PageID) {
	n := e.n
	sys := n.sys
	perGLA := make(map[int][]releasedPage)
	for _, page := range pages {
		mod := t.modified[page]
		if mod == nil {
			continue
		}
		gla := sys.gla.GLA(page)
		if sys.glaHomeOf(gla) == n.id {
			meta := sys.pclMetaOf(gla, page)
			if e.kind == cc.KindMVTO {
				sys.ccVersions.Commit(page, t.cct.TS, mod.frame.SeqNo, meta.Seq)
			}
			publishMeta(meta, mod.frame.SeqNo, -1)
			sys.oracle.commit(page, mod.frame.SeqNo)
			continue
		}
		rp := releasedPage{Page: page, NewSeq: mod.frame.SeqNo}
		if !sys.params.Force {
			// Ownership moves to the serving node; the local copy stays
			// readable but is no longer this node's to write back.
			rp.Carried = true
			mod.frame.Dirty = false
		}
		perGLA[gla] = append(perGLA[gla], rp)
	}
	n.ccCPUOp(t, sys.params.LockInstr)
	for _, gla := range sortedKeys(perGLA) {
		batch := perGLA[gla]
		class := netsim.Short
		for _, rp := range batch {
			if rp.Carried {
				class = netsim.Long
				break
			}
		}
		// Reliable: a lost publication would leave the partition's
		// metadata stale and invalidate later validations.
		sys.net.SendReliable(t.proc, n.id, sys.glaHomeOf(gla), class, ccPublishMsg{
			Owner: t.owner, GLA: gla, TS: t.cct.TS,
			MVTO: e.kind == cc.KindMVTO, Pages: batch,
		})
	}
}

// remoteOp performs one metadata round trip at a partition's serving
// node, with the same fault handling as a remote lock request: a
// pre-detected crash or a timer wake aborts the attempt with
// errTimeout and the transaction retries after backoff.
func (e *optEngine) remoteOp(t *txn, home int, msg ccOpMsg) (*remoteWait, error) {
	n := e.n
	sys := n.sys
	if sys.faultsOn && sys.down[home] {
		return nil, errTimeout
	}
	n.remoteLocks++
	wait := &remoteWait{proc: t.proc}
	msg.Wait = wait
	start := sys.env.Now()
	sys.net.Send(t.proc, n.id, home, netsim.Short, msg)
	// Visible only after the send: a crash sweep must not unpark the
	// process while it is still inside the send.
	t.waiting = wait
	armed := sys.faultsOn && sys.params.LockWaitTimeout > 0
	if armed {
		t.proc.UnparkAfter(sys.params.LockWaitTimeout)
	}
	t.proc.Park()
	t.waiting = nil
	t.phases.Add(trace.PhaseLockMsg, sys.env.Now()-start)
	t.cp.Add(attrib.ResCC, sys.env.Now()-start, 0)
	if tr := sys.tracer; tr.Enabled() {
		tr.Span(n.track, int64(t.id), "cc", "cc-remote", start, sys.env.Now(), msg.Pages[0].Page.String())
	}
	if t.killed {
		wait.abandoned = true
		return nil, errKilled
	}
	if armed && !wait.woken {
		// Timer wake: the request or the reply was lost, or the serving
		// node died. Retry after backoff.
		wait.abandoned = true
		sys.lockTimeouts++
		return nil, errTimeout
	}
	return wait, nil
}

// handleCCOp serves optimistic metadata operations at a partition's
// serving node (PCL); the reply is a short message.
func (n *Node) handleCCOp(p *sim.Proc, m ccOpMsg) {
	sys := n.sys
	if sys.faultsOn && sys.down[m.Owner.Node] {
		// The requester crashed while the message was in flight.
		return
	}
	ack := ccOpAckMsg{Wait: m.Wait, OK: true}
	switch m.Op {
	case ccOpLookup:
		page := m.Pages[0].Page
		meta := sys.pclMetaOf(m.GLA, page)
		ack.Seq = meta.Seq
		if !sys.params.Force && n.hasCurrent(page, meta.Seq) {
			ack.Owner = true
		}
	case ccOpVersionRead:
		page := m.Pages[0].Page
		meta := sys.pclMetaOf(m.GLA, page)
		v, _ := sys.ccVersions.Read(page, m.TS, meta.Seq)
		ack.Seq, ack.WTS = v.Seq, v.WTS
		if !sys.params.Force && v.Seq == meta.Seq && n.hasCurrent(page, meta.Seq) {
			ack.Owner = true
		}
	case ccOpVersionWrite:
		page := m.Pages[0].Page
		meta := sys.pclMetaOf(m.GLA, page)
		wts, ok, reason := sys.ccVersions.WriteObserve(page, m.TS, meta.Seq)
		ack.Seq, ack.WTS, ack.OK, ack.Reason = meta.Seq, wts, ok, reason
		if !ok {
			ack.Page = page
		}
	case ccOpValidate:
		for _, op := range m.Pages {
			meta := sys.pclMetaOf(m.GLA, op.Page)
			if m.MVTO {
				if ok, reason := sys.ccVersions.Recheck(op.Page, m.TS, op.Recorded, meta.Seq); !ok {
					ack.OK, ack.Reason, ack.Page = false, reason, op.Page
					break
				}
			} else if meta.Seq != op.Recorded {
				ack.OK, ack.Page = false, op.Page
				break
			}
		}
	}
	sys.net.Send(p, n.id, m.Owner.Node, netsim.Short, ack)
}

// handleCCPublish installs published versions at a partition's serving
// node (PCL): metadata updated monotonically, carried pages installed
// (the serving node becomes their owner), MV-TO versions committed.
func (n *Node) handleCCPublish(p *sim.Proc, m ccPublishMsg) {
	sys := n.sys
	for _, rp := range m.Pages {
		meta := sys.pclMetaOf(m.GLA, rp.Page)
		if m.MVTO {
			sys.ccVersions.Commit(rp.Page, m.TS, rp.NewSeq, meta.Seq)
		}
		if rp.NewSeq > meta.Seq {
			meta.Seq = rp.NewSeq
			sys.oracle.commit(rp.Page, rp.NewSeq)
		}
		if rp.Carried {
			n.install(rp.Page, rp.NewSeq, true)
		}
	}
}
