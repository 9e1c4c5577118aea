// Package replay is the reproduction's ScalaReplay: it re-executes a
// compressed communication trace on the simulated MPI runtime, issuing the
// recorded operations with the recorded compute times. Section 5.2 of the
// paper replays both the original application's trace and the generated
// benchmark's trace to compare them free of spurious structural differences;
// Equivalent implements that comparison.
//
// A replayed rank is a flat, pre-known operation sequence, which is exactly
// the shape the event engine's stackless representation wants: by default
// (ModeAuto under the event engine) each rank is compiled into an OpStream
// cursor and driven without a goroutine or stack, which removes the
// per-rank stack footprint and handoff cost at large world sizes. The
// coroutine path is retained for the goroutine reference runtime and for
// differential testing; both paths stamp the trace's recorded call
// sites onto the re-issued operations, so all runtimes re-trace
// byte-identically.
package replay

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Mode selects the rank representation a replay runs on.
type Mode int

const (
	// ModeAuto uses stackless cursors when the options leave the event
	// engine in charge, coroutine bodies otherwise.
	ModeAuto Mode = iota
	// ModeCursor forces the stackless representation (event engine only).
	ModeCursor
	// ModeCoroutine forces the goroutine-backed body on whichever runtime
	// the options select.
	ModeCoroutine
)

// Replay executes the trace on n simulated ranks and returns the runtime's
// result. Extra mpi options (tracers, profilers, timeouts, a pooled engine)
// may be supplied — replaying under a Collector yields a re-trace. The rank
// representation is chosen automatically (ModeAuto); ReplayMode pins it.
func Replay(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	return ReplayMode(t, ModeAuto, model, opts...)
}

// ReplayMode is Replay with an explicit rank representation. The
// differential suite runs the same trace through ModeCursor, ModeCoroutine
// (event engine) and ModeCoroutine (goroutine runtime) and requires
// byte-identical traces and clocks from all three.
func ReplayMode(t *trace.Trace, mode Mode, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	if mode == ModeAuto {
		if mpi.EventEngineSelected(opts...) {
			mode = ModeCursor
		} else {
			mode = ModeCoroutine
		}
	}
	if mode == ModeCursor {
		return mpi.RunStackless(t.N, model, func(rank int) mpi.OpStream {
			return newCursorStream(t, rank)
		}, opts...)
	}
	// The communicator table's final size is known up front (world plus every
	// traced communicator), and a handful of outstanding requests is the norm
	// for traced codes; pre-sizing both keeps the replay loop allocation-free.
	nComms := 1 + len(t.Comms)
	body := func(r *mpi.Rank) {
		rp := &replayer{t: t, rank: r,
			comms:       make(map[int]*mpi.Comm, nComms),
			outstanding: make([]*mpi.Request, 0, 16),
		}
		rp.comms[0] = r.World()
		g := t.GroupOf(r.Rank())
		if g == nil {
			return
		}
		for c := trace.NewCursor(g.Seq, r.Rank()); !c.Done(); c.Advance() {
			rp.play(c.Cur(), c.InnermostIter() == 0)
		}
		if len(rp.outstanding) > 0 {
			r.SetCallSite(mpi.EndDrainSite)
			r.Waitall(rp.outstanding...)
		}
	}
	return mpi.Run(t.N, model, body, opts...)
}

// cursorStream feeds one rank's trace walk to the stackless executor,
// translating each leaf into a RankOp on demand. The executor owns all
// execution state (communicator table, outstanding requests); the stream
// only resolves per-leaf parameters — peers, v-collective contributions,
// split colors — exactly as the coroutine replayer does before its calls.
type cursorStream struct {
	t *trace.Trace
	c *trace.Cursor
}

func newCursorStream(t *trace.Trace, rank int) *cursorStream {
	s := &cursorStream{t: t}
	if g := t.GroupOf(rank); g != nil {
		s.c = trace.NewCursor(g.Seq, rank)
	}
	return s
}

// Next implements mpi.OpStream.
func (s *cursorStream) Next(r *mpi.Rank) (mpi.RankOp, bool) {
	if s.c == nil || s.c.Done() {
		return mpi.RankOp{}, false
	}
	leaf := s.c.Cur()
	first := s.c.InnermostIter() == 0
	s.c.Advance()
	return s.translate(leaf, first, r.Rank()), true
}

// translate builds the RankOp for one leaf, mirroring the argument
// resolution in replayer.play leaf for leaf.
func (s *cursorStream) translate(leaf *trace.RSD, first bool, rank int) mpi.RankOp {
	op := mpi.RankOp{
		Op:        leaf.Op,
		ComputeUS: leaf.ComputeMeanAt(first),
		Site:      leaf.Site,
		CommID:    leaf.CommID,
		Tag:       leaf.Tag,
		Root:      leaf.Root,
	}
	switch leaf.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpWait, mpi.OpWaitall:
		// Compute (and, for the drains, the outstanding set) only.
	case mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv:
		op.Size = leaf.Size
		if leaf.Peer.Kind == trace.ParamAny {
			op.Peer = mpi.AnySource
		} else {
			op.Peer = leaf.PeerFor(rank, s.t)
		}
	case mpi.OpGatherv, mpi.OpAllgatherv:
		// These wrappers take this rank's contribution, not the vector.
		op.Size = s.mySizeOf(leaf, rank)
	case mpi.OpScatterv, mpi.OpAlltoallv, mpi.OpReduceScatter:
		op.Counts = leaf.Counts
	case mpi.OpCommSplit:
		// Members of the same new communicator share a color; the recorded
		// group order is reproduced through the key.
		op.SplitColor = -1
		if leaf.NewCommID != 0 {
			op.SplitColor = leaf.NewCommID
			for i, w := range s.t.CommGroup(leaf.NewCommID) {
				if w == rank {
					op.SplitKey = i
				}
			}
			op.NewCommID = leaf.NewCommID
		}
	case mpi.OpCommDup:
		op.NewCommID = leaf.NewCommID
	default:
		// Fixed-size collectives: Barrier, Bcast, Reduce, Allreduce,
		// Gather, Allgather, Scatter, Alltoall.
		op.Size = leaf.Size
	}
	return op
}

// mySizeOf mirrors replayer.mySizeOf for the cursor path.
func (s *cursorStream) mySizeOf(leaf *trace.RSD, rank int) int {
	if len(leaf.Counts) > 0 {
		if me, ok := s.t.CommRankOf(leaf.CommID, rank); ok && me < len(leaf.Counts) {
			return leaf.Counts[me]
		}
	}
	return leaf.Size
}

type replayer struct {
	t           *trace.Trace
	rank        *mpi.Rank
	comms       map[int]*mpi.Comm
	outstanding []*mpi.Request
}

// comm returns the live communicator for a trace comm ID, falling back to
// the world communicator for unknown IDs.
func (rp *replayer) comm(id int) *mpi.Comm {
	if c, ok := rp.comms[id]; ok {
		return c
	}
	return rp.rank.World()
}

// peer resolves the RSD's peer parameter for this rank within the given
// communicator.
func (rp *replayer) peer(leaf *trace.RSD) int {
	if leaf.Peer.Kind == trace.ParamAny {
		return mpi.AnySource
	}
	return leaf.PeerFor(rp.rank.Rank(), rp.t)
}

// play issues one leaf. Every issuing call is preceded by SetCallSite so the
// re-traced event carries the source trace's site rather than this file's
// stack hash; leaves that issue no call (Init, an empty drain) stamp
// nothing, leaving the implicit Init/Finalize events their rankMain site.
func (rp *replayer) play(leaf *trace.RSD, firstIter bool) {
	rp.rank.Compute(leaf.ComputeMeanAt(firstIter))
	c := rp.comm(leaf.CommID)
	switch leaf.Op {
	case mpi.OpInit:
		// Init is implicit in the runtime.
	case mpi.OpFinalize:
		// Finalize is issued by the runtime after the body returns; drain
		// outstanding requests so it can complete.
		if len(rp.outstanding) > 0 {
			rp.rank.SetCallSite(leaf.Site)
			rp.rank.Waitall(rp.outstanding...)
			rp.outstanding = rp.outstanding[:0]
		}
	case mpi.OpSend:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Send(c, rp.peer(leaf), leaf.Tag, leaf.Size)
	case mpi.OpIsend:
		rp.rank.SetCallSite(leaf.Site)
		rp.outstanding = append(rp.outstanding, rp.rank.Isend(c, rp.peer(leaf), leaf.Tag, leaf.Size))
	case mpi.OpRecv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Recv(c, rp.peer(leaf), leaf.Tag, leaf.Size)
	case mpi.OpIrecv:
		rp.rank.SetCallSite(leaf.Site)
		rp.outstanding = append(rp.outstanding, rp.rank.Irecv(c, rp.peer(leaf), leaf.Tag, leaf.Size))
	case mpi.OpWait, mpi.OpWaitall:
		if len(rp.outstanding) > 0 {
			rp.rank.SetCallSite(leaf.Site)
			rp.rank.Waitall(rp.outstanding...)
			rp.outstanding = rp.outstanding[:0]
		}
	case mpi.OpBarrier:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Barrier(c)
	case mpi.OpBcast:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Bcast(c, leaf.Root, leaf.Size)
	case mpi.OpReduce:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Reduce(c, leaf.Root, leaf.Size)
	case mpi.OpAllreduce:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allreduce(c, leaf.Size)
	case mpi.OpGather:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Gather(c, leaf.Root, leaf.Size)
	case mpi.OpGatherv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Gatherv(c, leaf.Root, rp.mySizeOf(leaf))
	case mpi.OpAllgather:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allgather(c, leaf.Size)
	case mpi.OpAllgatherv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allgatherv(c, rp.mySizeOf(leaf))
	case mpi.OpScatter:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Scatter(c, leaf.Root, leaf.Size)
	case mpi.OpScatterv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Scatterv(c, leaf.Root, leaf.Counts)
	case mpi.OpAlltoall:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Alltoall(c, leaf.Size)
	case mpi.OpAlltoallv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Alltoallv(c, leaf.Counts)
	case mpi.OpReduceScatter:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.ReduceScatter(c, leaf.Counts)
	case mpi.OpCommSplit:
		// Members of the same new communicator share a color; the recorded
		// group order is reproduced through the key.
		color, key := -1, 0
		if leaf.NewCommID != 0 {
			color = leaf.NewCommID
			for i, w := range rp.t.CommGroup(leaf.NewCommID) {
				if w == rp.rank.Rank() {
					key = i
				}
			}
		}
		rp.rank.SetCallSite(leaf.Site)
		if sub := rp.rank.CommSplit(c, color, key); sub != nil && leaf.NewCommID != 0 {
			rp.comms[leaf.NewCommID] = sub
		}
	case mpi.OpCommDup:
		rp.rank.SetCallSite(leaf.Site)
		sub := rp.rank.CommDup(c)
		if leaf.NewCommID != 0 {
			rp.comms[leaf.NewCommID] = sub
		}
	}
}

// mySizeOf returns this rank's contribution for a v-collective leaf: its
// comm-rank entry of Counts when present, the (possibly averaged) Size
// otherwise.
func (rp *replayer) mySizeOf(leaf *trace.RSD) int {
	if len(leaf.Counts) > 0 {
		if me, ok := rp.t.CommRankOf(leaf.CommID, rp.rank.Rank()); ok && me < len(leaf.Counts) {
			return leaf.Counts[me]
		}
	}
	return leaf.Size
}
