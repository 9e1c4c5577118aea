package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// This file is the stackless rank representation: phase 2 of the event
// engine. A coroutine rank costs a goroutine — a stack that grows to the
// body's deepest frame and a channel handoff per context switch — per rank,
// per world. For arbitrary imperative bodies that cost is irreducible (the
// continuation lives on the stack), but replay and generated-benchmark
// bodies are restricted: each rank is a flat, pre-known sequence of MPI
// operations. Such a sequence compiles into a cursor — an op index plus a
// small resume tag — that the drive loop advances directly: no goroutine,
// no stack, no channel. Blocking points return to the drive loop with the
// rank registered on the structure it waits on (the same registrations a
// coroutine rank makes), and the wake pushes it back onto the identical
// (clock, rank)-keyed run queue, so the dispatch order — and therefore every
// virtual clock, every wildcard match, every trace byte — is bit-identical
// to the coroutine engine. The differential suite pins exactly that.
//
// Each cursor's step mirrors, statement for statement, the rank-side path
// it replaces (Send/Recv/Waitall in rank.go, runCollective/CommSplit/
// CommDup/Finalize in collectives.go, rankMain in world.go), split at its
// blocking points via the split-phase rendezvous in seqcoll.go and the
// explicit wait predicates of the mailbox. When editing either side, keep
// the other in lockstep.

// RankOp is one operation of a stackless rank body: the op code, the
// compute phase preceding it, and the operation's resolved parameters.
// Peer is communicator-relative (AnySource allowed); Root likewise. For
// v-collectives whose public call takes a per-member size (Gatherv,
// Allgatherv), Size carries this rank's contribution and Counts stays nil;
// for those taking the full vector (Scatterv, Alltoallv, ReduceScatter),
// Counts carries it. Site is the call-site hash to stamp on the traced
// event (ignored when the run is untraced).
type RankOp struct {
	Op        Op
	ComputeUS float64
	Site      uint64
	CommID    int
	Peer      int
	Tag       int
	Size      int
	Root      int
	Counts    []int
	// NewCommID, SplitColor and SplitKey parameterize OpCommSplit (color,
	// key, and the ID under which the minted communicator is registered for
	// later ops) and OpCommDup (NewCommID only).
	NewCommID  int
	SplitColor int
	SplitKey   int
}

// OpStream feeds one rank's operation sequence to the stackless executor.
// Next is called once per operation, on the engine's goroutine, with the
// rank about to issue it (streams may consult r.Rank() or r.Clock());
// returning ok=false ends the body. Streams are single-use per run.
type OpStream interface {
	Next(r *Rank) (op RankOp, ok bool)
}

// EndDrainSite is the call-site hash stamped on the implicit end-of-body
// Waitall that drains requests left outstanding when a stream ends. Replay
// bodies stamp the same constant on their trailing drain so stackful and
// stackless replays of the same trace stay byte-identical. (The value spells
// "enddrain".)
const EndDrainSite uint64 = 0x656e64647261696e

// rankMainSite is the call-site hash of the Init and Finalize events that
// rankMain records: callSite() truncates its stack walk at rankMain, so at
// that depth it hashes zero frames — the FNV-1a offset basis. The stackless
// executor has no stack to walk and stamps the constant directly.
var rankMainSite = fnv.New64a().Sum64()

// slExec phases: a cursor runs Init, then its stream, then the implicit
// end-of-body drain, then Finalize.
const (
	phInit uint8 = iota
	phStream
	phEndDrain
	phFinalize
	phDone
)

// slExec wait registrations: what the cursor is parked on when it returns
// to the drive loop without finishing its current operation.
const (
	pendNone uint8 = iota
	// pendMatch: a posted receive awaiting its matching deposit
	// (awaitMatch's predicate: pendP.msg != nil).
	pendMatch
	// pendCredit: a sender stalled on flow control (awaitCredit's
	// predicate: the rank's cwDone flag).
	pendCredit
	// pendColl: parked on a collective round (await's predicate: the
	// rendezvous generation has advanced past pendGen).
	pendColl
)

// slExec is one stackless rank: the cursor the drive loop advances in place
// of a rank goroutine. All fields are touched only under the engine's
// execution discipline (one rank steps at a time), so none need locks.
type slExec struct {
	stream OpStream
	// comms maps stream communicator IDs to live communicators, mirroring
	// the replayer's table; unknown IDs fall back to the world.
	comms map[int]*Comm
	// outstanding accumulates nonblocking requests between drains.
	outstanding []*Request

	phase uint8
	// op is the operation in flight; hasOp distinguishes "mid-operation"
	// (resuming after a park) from "fetch the next one".
	op    RankOp
	hasOp bool
	// stage is the operation's resume point; wstage/widx position the
	// Waitall drain within its per-request passes.
	stage  uint8
	wstage uint8
	widx   int

	// st is the entry snapshot of the operation in flight; c its resolved
	// communicator; me this rank's comm rank in c; wdst the send target's
	// world rank; rp the blocking receive in flight; wCommID/wCommSize the
	// drain's running event attribution (last request wins, as in Waitall).
	st        entryState
	c         *Comm
	me        int
	wdst      int
	rp        *postedRecv
	wCommID   int
	wCommSize int

	// Park registration (see the pend constants).
	pend         uint8
	pendP        *postedRecv
	pendCS       *seqColl
	pendGen      uint64
	pendCommRank int
}

// init arms a cursor for one run, retaining its grown containers: the
// outstanding slice keeps its capacity (pointers cleared so a pooled world
// does not pin the previous run's requests) and the comm table keeps its
// buckets.
func (x *slExec) init(s OpStream) {
	outstanding := x.outstanding
	clear(outstanding[:cap(outstanding)])
	comms := x.comms
	if comms == nil {
		comms = make(map[int]*Comm, 2)
	} else {
		clear(comms)
	}
	*x = slExec{stream: s, outstanding: outstanding[:0], comms: comms}
}

// comm resolves a stream communicator ID, falling back to the world
// communicator for unknown IDs (the replayer's convention).
func (x *slExec) comm(r *Rank, id int) *Comm {
	if c, ok := x.comms[id]; ok {
		return c
	}
	return r.w.commWorld
}

// tryResume checks the parked wait's predicate. A false return means the
// wake was spurious: the cursor stays parked (re-registering where the
// coroutine loop would) and the drive loop re-blocks it. A true return
// completes the wait's bookkeeping — exactly what the tail of the
// corresponding coroutine wait (awaitMatch, awaitCredit, await) performs —
// and hands control back to the operation's resume stage.
func (x *slExec) tryResume(r *Rank) bool {
	switch x.pend {
	case pendMatch:
		p := x.pendP
		if p.msg == nil {
			return false
		}
		r.w.mailboxes[r.rank].noteConsumedLocked(p)
		x.pendP = nil
	case pendCredit:
		if !r.cwDone {
			return false
		}
		// Mirrors the tail of stallForCredit, including its profiling hook:
		// the stall resolved at the releasing drain clock (or logically
		// before the sender's own clock — resumeAt folds both).
		start := r.clock
		resumeAt := math.Max(start, r.cwResume)
		r.clock = resumeAt + r.w.model.ResumeLatencyUS
		if g := r.w.prof; g != nil {
			g.add(DepRecord{Kind: DepCredit, Op: OpSend, Rank: int32(r.rank),
				From: r.cwFrom, Site: r.curSite, Start: start, Ready: resumeAt,
				End: r.clock, FromClock: resumeAt})
		}
	case pendColl:
		if x.pendCS.gen == x.pendGen {
			// Round not closed yet: re-register, as await's loop re-appends
			// before every block.
			x.pendCS.park(x.pendCommRank)
			return false
		}
		x.pendCS = nil
	}
	x.pend = pendNone
	return true
}

// step advances the cursor until it finishes (true) or parks (false).
func (x *slExec) step(r *Rank) (done bool) {
	if x.pend != pendNone && !x.tryResume(r) {
		return false
	}
	for {
		switch x.phase {
		case phInit:
			// rankMain's Init event.
			st := entryState{start: r.clock, compute: r.clock - r.lastOpEnd}
			if r.tracer != nil || r.w.prof != nil {
				st.site = rankMainSite
			}
			r.noteSite(st.site)
			r.record(st, &Event{Op: OpInit, CommID: 0, CommSize: r.w.n,
				Peer: NoPeer, PeerWorld: NoPeer, Root: -1})
			x.phase = phStream
		case phStream:
			if !x.hasOp {
				op, ok := x.stream.Next(r)
				if !ok {
					x.phase = phEndDrain
					continue
				}
				x.op = op
				x.hasOp = true
				x.stage = 0
				x.wstage = 0
			}
			if x.execOp(r) {
				return false
			}
			x.hasOp = false
		case phEndDrain:
			// rankMain analog: replay bodies drain leftover requests before
			// returning so Finalize can complete.
			if !x.hasOp {
				if len(x.outstanding) == 0 {
					x.phase = phFinalize
					x.stage = 0
					continue
				}
				x.op = RankOp{Op: OpWaitall, Site: EndDrainSite}
				x.hasOp = true
				x.stage = 0
				x.wstage = 0
			}
			if x.execOp(r) {
				return false
			}
			x.hasOp = false
			x.phase = phFinalize
			x.stage = 0
		case phFinalize:
			if x.execFinalize(r) {
				return false
			}
			x.phase = phDone
		case phDone:
			return true
		}
	}
}

// execOp runs (or resumes) the operation in flight, returning true if it
// parked. Nonblocking operations reuse the public Rank methods unchanged;
// blocking ones are the same code split at their wait.
func (x *slExec) execOp(r *Rank) (parked bool) {
	op := &x.op
	switch op.Op {
	case OpInit:
		// Init is implicit (recorded by phInit); the leaf carries compute only.
		r.Compute(op.ComputeUS)
	case OpSend:
		return x.execSend(r)
	case OpIsend:
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.outstanding = append(x.outstanding, r.Isend(x.comm(r, op.CommID), op.Peer, op.Tag, op.Size))
	case OpRecv:
		return x.execRecv(r)
	case OpIrecv:
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.outstanding = append(x.outstanding, r.Irecv(x.comm(r, op.CommID), op.Peer, op.Tag, op.Size))
	case OpWait, OpWaitall, OpFinalize:
		// All three drain the outstanding set (a Finalize leaf drains so the
		// runtime's own Finalize — phFinalize — can complete), and all record
		// as Waitall, exactly as a replay body calling Waitall would.
		return x.execDrain(r)
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpGatherv,
		OpAllgather, OpAllgatherv, OpScatter, OpScatterv, OpAlltoall,
		OpAlltoallv, OpReduceScatter:
		return x.execColl(r)
	case OpCommSplit:
		return x.execSplit(r)
	case OpCommDup:
		return x.execDup(r)
	default:
		panic(fmt.Sprintf("mpi: stackless rank %d: unsupported op %v", r.rank, op.Op))
	}
	return false
}

// execSend mirrors Rank.Send split at stallForCredit.
func (x *slExec) execSend(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		x.wdst = c.WorldRank(op.Peer)
		msg := r.inject(x.wdst, op.Tag, op.Size)
		m := r.w.model
		if window := m.CreditWindow; window > 0 {
			s := r.w.mailboxes[x.wdst].slot(msg.src)
			if !msg.drained && s.inflight > window {
				r.cwDone = false
				r.cwResume = 0
				s.credit = creditWaiter{rank: int32(msg.src), window: int32(window), msg: msg}
				x.stage = 1
				x.pend = pendCredit
				return true
			}
		}
	}
	// Stage 1 resumes here with the credit stall's clock advance already
	// applied by tryResume.
	r.record(x.st, &Event{Op: OpSend, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: op.Peer, PeerWorld: x.wdst, Tag: op.Tag, Size: op.Size, Root: -1})
	return false
}

// execRecv mirrors Rank.Recv split at awaitMatch.
func (x *slExec) execRecv(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		wsrc := op.Peer
		if wsrc != AnySource {
			wsrc = c.WorldRank(op.Peer)
		}
		p := r.postRecv(wsrc, op.Tag)
		x.rp = p
		if !r.w.mailboxes[r.rank].post(p) {
			x.stage = 1
			x.pend = pendMatch
			x.pendP = p
			return true
		}
	}
	p := x.rp
	r.completeRecv(p)
	r.record(x.st, &Event{Op: OpRecv, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: op.Peer, PeerWorld: p.msg.src, SourceWasWildcard: op.Peer == AnySource,
		Tag: op.Tag, Size: op.Size, Root: -1})
	x.rp = nil
	return false
}

// execDrain mirrors a replay body's Waitall over the outstanding set —
// including the guard: with nothing outstanding the leaf is compute-only,
// as the replayer skips the call entirely. The two passes (receives first,
// then sends) and the per-request wait splits mirror Rank.Waitall and
// Rank.wait.
func (x *slExec) execDrain(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		if len(x.outstanding) == 0 {
			return false
		}
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		x.wCommID, x.wCommSize = 0, r.w.n
		x.widx = 0
		x.wstage = 0
		x.stage = 1
	}
	if x.stage == 1 {
		// First pass: complete receives (returning flow-control credit
		// before send stalls are served).
		for x.widx < len(x.outstanding) {
			q := x.outstanding[x.widx]
			if q.op == OpIrecv && !q.done {
				if x.wstage == 0 {
					if !q.pr.fastMatched {
						if q.pr.msg == nil {
							x.wstage = 1
							x.pend = pendMatch
							x.pendP = q.pr
							return true
						}
						r.w.mailboxes[r.rank].noteConsumedLocked(q.pr)
					}
					x.wstage = 1
				}
				r.completeRecv(q.pr)
				q.done = true
				x.wstage = 0
			}
			x.wCommID, x.wCommSize = q.comm.id, q.comm.Size()
			x.widx++
		}
		x.widx = 0
		x.stage = 2
	}
	// Second pass: complete sends.
	for x.widx < len(x.outstanding) {
		q := x.outstanding[x.widx]
		if q.op != OpIrecv && !q.done {
			if x.wstage == 0 {
				m := r.w.model
				if window := m.CreditWindow; window > 0 {
					s := q.dst.slot(q.msg.src)
					if !q.msg.drained && s.inflight > window {
						r.cwDone = false
						r.cwResume = 0
						s.credit = creditWaiter{rank: int32(q.msg.src), window: int32(window), msg: q.msg}
						x.wstage = 1
						x.pend = pendCredit
						return true
					}
				}
			}
			q.done = true
			x.wstage = 0
		}
		x.widx++
	}
	r.record(x.st, &Event{Op: OpWaitall, CommID: x.wCommID, CommSize: x.wCommSize,
		Peer: NoPeer, PeerWorld: NoPeer, Size: len(x.outstanding), Root: -1})
	clear(x.outstanding)
	x.outstanding = x.outstanding[:0]
	return false
}

// collArgs mirrors the per-collective argument preparation of the public
// wrappers in collectives.go: the rendezvous contribution and cost spec.
func collArgs(op *RankOp, c *Comm) (contrib int, cc collCost) {
	p := c.Size()
	switch op.Op {
	case OpBarrier:
		return 0, collCost{kind: costBarrier, p: p}
	case OpBcast, OpReduce, OpGather, OpGatherv, OpScatter:
		return op.Size, collCost{kind: costTree, p: p, factor: 1, div: 1}
	case OpAllreduce, OpAllgather, OpAllgatherv:
		return op.Size, collCost{kind: costTree, p: p, factor: 2, div: 1}
	case OpScatterv:
		return sumInts(op.Counts), collCost{kind: costTree, p: p, factor: 1, div: maxInt(p, 1)}
	case OpAlltoall:
		return op.Size, collCost{kind: costAlltoall, p: p}
	case OpAlltoallv:
		total := sumInts(op.Counts)
		avg := 0
		if p > 0 {
			avg = total / p
		}
		return avg, collCost{kind: costAlltoall, p: p}
	case OpReduceScatter:
		return sumInts(op.Counts), collCost{kind: costTree, p: p, factor: 2, div: maxInt(p, 1)}
	}
	panic(fmt.Sprintf("mpi: collArgs on non-collective op %v", op.Op))
}

// collEvent mirrors the event parameters each public wrapper passes to
// runCollective.
func collEvent(op *RankOp, me int) (size, root int, counts []int) {
	switch op.Op {
	case OpBarrier:
		return 0, -1, nil
	case OpBcast, OpReduce, OpGather, OpGatherv, OpScatter:
		return op.Size, op.Root, nil
	case OpScatterv:
		mySize := 0
		if me < len(op.Counts) {
			mySize = op.Counts[me]
		}
		return mySize, op.Root, op.Counts
	case OpAlltoallv, OpReduceScatter:
		return sumInts(op.Counts), -1, op.Counts
	default: // Allreduce, Allgather(v), Alltoall
		return op.Size, -1, nil
	}
}

// parkColl registers the cursor on the round it joined, mirroring await.
func (x *slExec) parkColl(cs *seqColl, myGen uint64, me int) {
	cs.park(me)
	x.pend = pendColl
	x.pendCS = cs
	x.pendGen = myGen
	x.pendCommRank = me
}

// execColl mirrors the fixed-cost collective wrappers plus runCollective,
// split at the rendezvous await.
func (x *slExec) execColl(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		x.me = r.myCommRank(c)
		contrib, cc := collArgs(op, c)
		cs := c.sync.(*seqColl)
		myGen, last := cs.arriveFixedRound(x.me, op.Op, r.clock, r.shadow, contrib)
		x.stage = 1
		if !last {
			x.parkColl(cs, myGen, x.me)
			return true
		}
		cs.closeFixedRound(r.w.model, cc)
	}
	cs := x.c.sync.(*seqColl)
	r.clock = cs.completion
	r.shadow = cs.shadowCompletion
	if r.tracer == nil {
		r.lastOpEnd = r.clock
		return false
	}
	size, root, counts := collEvent(op, x.me)
	r.record(x.st, &Event{Op: op.Op, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: NoPeer, PeerWorld: NoPeer, Size: size, Counts: counts, Root: root})
	return false
}

// execSplit mirrors Rank.CommSplit split at the rendezvous await, plus the
// replayer's registration of the minted communicator.
func (x *slExec) execSplit(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		x.me = r.myCommRank(c)
		contrib := splitKey{color: op.SplitColor, key: op.SplitKey, worldRank: r.rank}
		cs := c.sync.(*seqColl)
		myGen, last := cs.arriveRound(x.me, OpCommSplit, r.clock, r.shadow, contrib)
		x.stage = 1
		if !last {
			x.parkColl(cs, myGen, x.me)
			return true
		}
		cs.closeRound(r.w.splitFinish(c))
	}
	cs := x.c.sync.(*seqColl)
	r.clock = cs.completion
	r.shadow = cs.shadowCompletion
	nc := cs.shared.(map[int]*Comm)[op.SplitColor]
	ev := Event{Op: OpCommSplit, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: NoPeer, PeerWorld: NoPeer, Root: -1}
	if nc != nil {
		ev.Group = nc.Group()
		ev.NewCommID = nc.id
	}
	r.record(x.st, &ev)
	if nc != nil && op.NewCommID != 0 {
		x.comms[op.NewCommID] = nc
	}
	return false
}

// execDup mirrors Rank.CommDup split at the rendezvous await.
func (x *slExec) execDup(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		x.me = r.myCommRank(c)
		cs := c.sync.(*seqColl)
		myGen, last := cs.arriveRound(x.me, OpCommDup, r.clock, r.shadow, nil)
		x.stage = 1
		if !last {
			x.parkColl(cs, myGen, x.me)
			return true
		}
		cs.closeRound(r.w.dupFinish(c))
	}
	cs := x.c.sync.(*seqColl)
	r.clock = cs.completion
	r.shadow = cs.shadowCompletion
	nc := cs.shared.(*Comm)
	r.record(x.st, &Event{Op: OpCommDup, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: NoPeer, PeerWorld: NoPeer, Root: -1,
		Group: nc.Group(), NewCommID: nc.id})
	if op.NewCommID != 0 {
		x.comms[op.NewCommID] = nc
	}
	return false
}

// execFinalize mirrors Rank.Finalize split at the rendezvous await.
func (x *slExec) execFinalize(r *Rank) bool {
	if x.stage == 0 {
		if r.finalized {
			return false
		}
		c := r.w.commWorld
		x.c = c
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd}
		if r.tracer != nil || r.w.prof != nil {
			x.st.site = rankMainSite
		}
		r.noteSite(x.st.site)
		x.me = r.myCommRank(c)
		cs := c.sync.(*seqColl)
		myGen, last := cs.arriveFixedRound(x.me, OpFinalize, r.clock, r.shadow, 0)
		x.stage = 1
		if !last {
			x.parkColl(cs, myGen, x.me)
			return true
		}
		cs.closeFixedRound(r.w.model, collCost{kind: costZero})
	}
	cs := x.c.sync.(*seqColl)
	r.clock = cs.completion
	r.shadow = cs.shadowCompletion
	r.record(x.st, &Event{Op: OpFinalize, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: NoPeer, PeerWorld: NoPeer, Root: -1})
	r.finalized = true
	return false
}

// drive is the stackless dispatch loop: the event-engine dispatch with the
// token handoff replaced by a direct cursor step. It returns whether it
// proved a virtual deadlock; a false return with live ranks remaining means
// the stop latch ended the run (the cursors simply stay where they are —
// there is no stack to unwind — and the pool's reset scrubs them).
func (e *eventLoop) drive() (deadlocked bool) {
	for {
		if e.stop.stopped() {
			return false
		}
		if len(e.heap) == 0 {
			if e.nLive == 0 {
				return false
			}
			// Every live rank is parked and the run queue is empty: no
			// deposit, drain or collective completion can ever arrive again.
			return true
		}
		i := e.pop()
		e.state[i] = rsRunning
		ctrSchedEvents.Inc()
		e.dispatches++
		if e.dispatches&63 == 0 {
			histSchedHeapDepth.Observe(float64(len(e.heap)))
		}
		e.stepCursor(i)
	}
}

// stepCursor advances one cursor, absorbing rank panics exactly as runBody
// does for coroutine ranks: a teardown unwind (runStopped) finishes the rank
// silently, anything else is captured for Run's error.
func (e *eventLoop) stepCursor(i int32) {
	r := &e.ranks[i]
	defer func() {
		if p := recover(); p != nil {
			if _, stopped := p.(runStopped); !stopped {
				e.panics = append(e.panics,
					fmt.Errorf("mpi: rank %d panicked: %v\n%s", r.rank, p, debug.Stack()))
			}
			e.state[i] = rsDone
			e.nLive--
		}
	}()
	if e.cursors[i].step(r) {
		e.state[i] = rsDone
		e.nLive--
	} else {
		e.state[i] = rsBlocked
	}
}

// RunStackless executes one stackless body per rank: progFor is called once
// per rank for its operation stream. Only the discrete-event engine can
// drive cursors, so combining this with WithGoroutineRuntime is an error.
// All other options (tracers, timeouts, contexts, WithEngine pooling) behave
// as in Run, and the results are bit-identical to running the equivalent
// imperative body on either runtime.
func RunStackless(n int, model *netmodel.Model, progFor func(rank int) OpStream, opts ...Option) (*Result, error) {
	cfg, err := prepare(&n, &model, opts)
	if err != nil {
		return nil, err
	}
	if cfg.goroutineRT {
		return nil, fmt.Errorf("mpi: stackless bodies require the event engine (drop WithGoroutineRuntime)")
	}
	if cfg.engine != nil {
		return cfg.engine.run(n, model, nil, progFor, cfg)
	}
	var setupStart time.Time
	if telemetry.Enabled() {
		setupStart = time.Now()
	}
	w, ranks := newWorld(n, model, cfg)
	ctrWorldReuseMisses.Inc()
	if !setupStart.IsZero() {
		histRunSetupUS.Observe(float64(time.Since(setupStart)) / float64(time.Microsecond))
	}
	return runStackless(w, cfg, ranks, progFor)
}

// runStackless drives one run's cursors to completion on w. The outcome
// handling mirrors runEvent; the difference is that nothing needs to unwind
// on failure — cursors are data, and an abandoned cursor costs nothing.
func runStackless(w *World, cfg *config, ranks []Rank, progFor func(rank int) OpStream) (*Result, error) {
	e := w.sched
	e.ranks = ranks
	if len(e.cursors) != len(ranks) {
		e.cursors = make([]slExec, len(ranks))
	}
	for i := range e.cursors {
		e.cursors[i].init(progFor(i))
	}
	for i := range e.state {
		e.heap = append(e.heap, heapEnt{clock: 0, rank: int32(i)})
	}

	// The watcher turns the wall-clock timeout and context cancellation into
	// a stop-latch trigger, which the drive loop observes before each event.
	// Its flag writes are ordered before our reads by the watcherDone close.
	var ctxDone <-chan struct{}
	if cfg.ctx != nil {
		ctxDone = cfg.ctx.Done()
	}
	finished := make(chan struct{})
	watcherDone := make(chan struct{})
	var timedOut bool
	var ctxErr error
	go func() {
		defer close(watcherDone)
		timer := time.NewTimer(cfg.timeout)
		defer timer.Stop()
		select {
		case <-finished:
		case <-timer.C:
			timedOut = true
			ctrRunsCancelled.Inc()
			w.stop.trigger()
		case <-ctxDone:
			ctxErr = cfg.ctx.Err()
			ctrRunsCancelled.Inc()
			w.stop.trigger()
		}
	}()

	deadlocked := e.drive()
	close(finished)
	<-watcherDone

	if deadlocked {
		// Poison the world for parity with runEvent: a deadlocked pooled
		// world re-enters the pool stopped, and reset re-arms it.
		ctrRunsCancelled.Inc()
		w.stop.trigger()
	}
	if len(e.panics) > 0 {
		return nil, e.panics[0]
	}
	if !deadlocked && e.nLive == 0 {
		// Completed: a timeout or cancellation that raced the finish is moot.
		res := collectResult(ranks)
		if w.prof != nil {
			w.prof.finish(res)
		}
		return res, nil
	}
	if ctxErr != nil {
		return nil, fmt.Errorf("mpi: run cancelled: %w", ctxErr)
	}
	if timedOut {
		return nil, fmt.Errorf("mpi: run did not complete within %v (deadlock suspected)", cfg.timeout)
	}
	return nil, fmt.Errorf("mpi: deadlock detected: every live rank is blocked and no event is pending")
}
