package mpi

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netmodel"
)

// Comm is a communicator: an ordered subset of world ranks with its own
// dense rank numbering, as in MPI. The world communicator has ID 0 and
// contains every rank in order.
type Comm struct {
	world *World
	id    int
	group []int       // comm rank -> world rank
	index map[int]int // world rank -> comm rank (nil when identity)
	// identity is true when comm rank i is world rank i for every member
	// (always the case for the world communicator), letting rank
	// translation skip the index map entirely.
	identity bool
	sync     collSync
}

// ID returns the communicator's unique identifier within its world.
func (c *Comm) ID() int { return c.id }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Group returns a copy of the comm-rank-to-world-rank mapping.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// WorldRank translates a communicator rank to a world ("absolute") rank.
// It panics on out-of-range ranks, mirroring an MPI rank error.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: comm %d has no rank %d (size %d)", c.id, commRank, len(c.group)))
	}
	return c.group[commRank]
}

// CommRank translates a world rank into this communicator's numbering.
// The boolean reports membership.
func (c *Comm) CommRank(worldRank int) (int, bool) {
	if c.identity {
		if worldRank >= 0 && worldRank < len(c.group) {
			return worldRank, true
		}
		return 0, false
	}
	r, ok := c.index[worldRank]
	return r, ok
}

// Contains reports whether the world rank belongs to the communicator.
func (c *Comm) Contains(worldRank int) bool {
	_, ok := c.CommRank(worldRank)
	return ok
}

func newComm(w *World, id int, group []int) *Comm {
	c := &Comm{world: w, id: id, group: append([]int(nil), group...)}
	c.identity = true
	for i, wr := range c.group {
		if wr != i {
			c.identity = false
			break
		}
	}
	if !c.identity {
		c.index = make(map[int]int, len(c.group))
		for i, wr := range c.group {
			c.index[wr] = i
		}
	}
	if w.sched != nil {
		c.sync = newSeqColl(w.sched, c.group)
	} else {
		c.sync = newLockedColl(len(group), w.stop)
	}
	return c
}

// collSync is the rendezvous implementing one collective round: all members
// arrive with their virtual clocks and per-rank contributions, the last
// arriver runs finish with the maximum entry clock and the gathered
// contributions, and everyone leaves with the round's completion time and the
// shared value finish returned. Generation matching is implicit: the i-th
// collective call on each rank joins the i-th round, which is exactly MPI's
// per-communicator collective ordering. Two implementations exist — the
// event engine's seqColl (production) and the mutex+cond lockedColl of the
// goroutine reference runtime (WithGoroutineRuntime).
type collSync interface {
	arrive(commRank int, op Op, clock, shadow float64, contrib any,
		finish func(maxClock float64, contribs []any) (completion float64, shared any)) (float64, float64, any)

	// arriveFixed is the allocation-free round for the ordinary collectives:
	// the contribution is a non-negative byte count whose per-round reduction
	// is max, and the cost function is described by the collCost value instead
	// of a closure, so an arrival heap-allocates nothing. The general arrive
	// remains for rounds that must gather every contribution (CommSplit) or
	// share a built value (CommDup).
	arriveFixed(commRank int, op Op, clock, shadow float64, contrib int,
		m *netmodel.Model, cc collCost) (completion, shadowCompletion float64)
}

// lockedColl is the reference collSync: one mutex plus condition variable
// per communicator, the goroutine runtime's rendezvous. Every arrival
// serializes on the lock and the last arriver's broadcast wakes all waiters;
// its simplicity makes it the ground truth the differential tests compare
// the event engine's virtual clocks against.
type lockedColl struct {
	mu   sync.Mutex
	cond *sync.Cond
	size int
	stop *runStop

	gen        uint64
	arrived    int
	maxClock   float64
	maxShadow  float64
	op         Op
	payload    []any // per-comm-rank contribution (general rounds: split/dup)
	maxPayload int   // running max contribution (fixed-cost rounds)

	// Results of the completed round, readable until the next round ends.
	completion       float64
	shadowCompletion float64
	shared           any
}

func newLockedColl(size int, stop *runStop) *lockedColl {
	cs := &lockedColl{size: size, stop: stop, payload: make([]any, size)}
	cs.cond = sync.NewCond(&cs.mu)
	stop.register(cs.cond)
	return cs
}

// arrive performs one collective round. commRank identifies the caller,
// clock is its virtual entry time and contrib is its payload (may be nil).
// The last member to arrive runs finish with the maximum entry clock and the
// gathered contributions; finish returns the round's completion time and an
// arbitrary shared value handed to every member (used by CommSplit/CommDup
// to distribute the newly created communicators).
func (cs *lockedColl) arrive(commRank int, op Op, clock, shadow float64, contrib any,
	finish func(maxClock float64, contribs []any) (completion float64, shared any)) (float64, float64, any) {
	cs.mu.Lock()
	defer cs.mu.Unlock()

	myGen := cs.gen
	if cs.arrived == 0 {
		cs.op = op
		cs.maxClock = clock
		cs.maxShadow = shadow
	} else {
		if cs.op != op {
			panic(fmt.Sprintf("mpi: collective mismatch: rank %d called %v while round started with %v", commRank, op, cs.op))
		}
		if clock > cs.maxClock {
			cs.maxClock = clock
		}
		if shadow > cs.maxShadow {
			cs.maxShadow = shadow
		}
	}
	cs.payload[commRank] = contrib
	cs.arrived++

	if cs.arrived == cs.size {
		// Last arriver closes the round. The shadow timeline completes at
		// the same collective cost applied to the shadow arrival front.
		contribs := append([]any(nil), cs.payload...)
		cs.completion, cs.shared = finish(cs.maxClock, contribs)
		cs.shadowCompletion = cs.maxShadow + (cs.completion - cs.maxClock)
		cs.gen++
		cs.arrived = 0
		for i := range cs.payload {
			cs.payload[i] = nil
		}
		cs.cond.Broadcast()
		return cs.completion, cs.shadowCompletion, cs.shared
	}
	// A later round cannot complete without this member arriving again, so
	// once gen advances the stored completion/shared belong to our round.
	for cs.gen == myGen {
		cs.stop.checkStopped()
		cs.cond.Wait()
	}
	return cs.completion, cs.shadowCompletion, cs.shared
}

// arriveFixed is the reference implementation of the fixed-cost round: the
// same mutex+cond rendezvous as arrive, folding a running int max instead of
// gathering a payload slice. Max over non-negative ints is order-independent,
// so the cost input — and therefore every virtual clock — is bit-identical to
// the closure-based round it replaces.
func (cs *lockedColl) arriveFixed(commRank int, op Op, clock, shadow float64, contrib int,
	m *netmodel.Model, cc collCost) (float64, float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()

	myGen := cs.gen
	if cs.arrived == 0 {
		cs.op = op
		cs.maxClock = clock
		cs.maxShadow = shadow
		cs.maxPayload = 0
	} else if cs.op != op {
		panic(fmt.Sprintf("mpi: collective mismatch: rank %d called %v while round started with %v", commRank, op, cs.op))
	} else {
		if clock > cs.maxClock {
			cs.maxClock = clock
		}
		if shadow > cs.maxShadow {
			cs.maxShadow = shadow
		}
	}
	if contrib > cs.maxPayload {
		cs.maxPayload = contrib
	}
	cs.arrived++

	if cs.arrived == cs.size {
		cs.completion = cs.maxClock + evalCollCost(m, cc, cs.maxPayload)
		cs.shadowCompletion = cs.maxShadow + (cs.completion - cs.maxClock)
		cs.shared = nil
		cs.gen++
		cs.arrived = 0
		cs.cond.Broadcast()
		return cs.completion, cs.shadowCompletion
	}
	for cs.gen == myGen {
		cs.stop.checkStopped()
		cs.cond.Wait()
	}
	return cs.completion, cs.shadowCompletion
}

// splitKey orders members of a split by (key, worldRank), per MPI_Comm_split.
type splitKey struct {
	color, key, worldRank int
}

// splitGroups partitions the contributions of a CommSplit round into new
// communicator groups keyed by color. Color < 0 (MPI_UNDEFINED) yields no
// membership.
func splitGroups(contribs []any) map[int][]int {
	var keys []splitKey
	for _, c := range contribs {
		keys = append(keys, c.(splitKey))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].color != keys[j].color {
			return keys[i].color < keys[j].color
		}
		if keys[i].key != keys[j].key {
			return keys[i].key < keys[j].key
		}
		return keys[i].worldRank < keys[j].worldRank
	})
	groups := make(map[int][]int)
	for _, k := range keys {
		if k.color < 0 {
			continue
		}
		groups[k.color] = append(groups[k.color], k.worldRank)
	}
	return groups
}
