// Package node models one FlexRay ECU: the host that produces message
// instances, the communication controller (CC) with its per-channel slot
// counters, and the controller–host interface (CHI) buffers between them —
// static send buffers keyed by frame ID and priority queues for dynamic
// messages (paper Section II-B).
package node

import (
	"errors"
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Errors returned by ECU operations.
var (
	// ErrForeignMessage is returned when enqueueing an instance whose
	// message belongs to a different node.
	ErrForeignMessage = errors.New("node: message belongs to another node")
	// ErrUnknownFrame is returned for operations on frame IDs the node
	// does not own.
	ErrUnknownFrame = errors.New("node: unknown frame ID")
	// ErrBufferFull is returned when a CHI buffer has reached its
	// configured capacity.
	ErrBufferFull = errors.New("node: CHI buffer full")
)

// NoDeadline marks batch-mode instances that are never dropped for
// lateness.
const NoDeadline = timebase.Macrotick(1<<62 - 1)

// Instance is one job of a message: a concrete frame to transmit.
type Instance struct {
	// Msg is the message this instance belongs to.
	Msg *signal.Message
	// Seq numbers the instance within its message (1-based).
	Seq int64
	// Release is the absolute time the instance became ready.
	Release timebase.Macrotick
	// Deadline is the absolute deadline (NoDeadline in batch mode).
	Deadline timebase.Macrotick
	// Attempts counts transmissions tried so far (including faults).
	Attempts int
	// Done marks successful delivery.
	Done bool
	// Completion is the delivery time when Done.
	Completion timebase.Macrotick
}

// Expired reports whether the instance's deadline has passed at time t
// without delivery.
func (in *Instance) Expired(t timebase.Macrotick) bool {
	return !in.Done && in.Deadline != NoDeadline && t > in.Deadline
}

// ECU is one node: CHI buffers plus CC slot counters.
type ECU struct {
	// ID is the cluster node ID.
	ID int
	// staticBufs holds the FIFO instance queue of each owned static
	// frame ID, indexed densely by frame ID (owned marks valid entries)
	// so the per-slot peek/pop path indexes a slice instead of hashing a
	// map key.
	staticBufs [][]*Instance
	owned      []bool
	// staticIDs lists owned static frame IDs in ascending order;
	// staticCount tracks the total instances buffered across them so the
	// per-cycle expiry sweep can skip ECUs with nothing queued.
	staticIDs   []int
	staticCount int
	// dynStreams holds one FIFO buffer per aperiodic message, sorted by
	// (priority, frame ID); dynByID indexes the streams densely by frame
	// ID and dynCount tracks the total buffered instances.  Splitting the
	// single priority heap into per-message release-ordered buffers makes
	// every peek O(streams) instead of O(instances) while preserving the
	// exact (priority, release, ID, seq) service order.
	dynStreams []*dynStream
	dynByID    []*dynStream
	dynCount   int
	// slotCounter is the CC's per-channel dynamic slot counter
	// (vSlotCounter(A) and vSlotCounter(B)); index 0 is channel A.
	slotCounter [2]int
	// staticCap bounds each static buffer; dynCap bounds the dynamic
	// queue.  Zero means unlimited — real CHIs have finite memory, and a
	// full buffer loses the newest instance.
	staticCap, dynCap int
}

// NewECU returns an ECU owning the static frame IDs assigned to it.
func NewECU(id int, staticFrameIDs []int) *ECU {
	e := &ECU{
		ID:          id,
		slotCounter: [2]int{1, 1},
	}
	maxID := -1
	for _, fid := range staticFrameIDs {
		if fid < 0 {
			continue // frame IDs are 1-based; never owned
		}
		if fid > maxID {
			maxID = fid
		}
		e.staticIDs = append(e.staticIDs, fid)
	}
	sort.Ints(e.staticIDs)
	e.staticBufs = make([][]*Instance, maxID+1)
	e.owned = make([]bool, maxID+1)
	for _, fid := range e.staticIDs {
		e.owned[fid] = true
	}
	return e
}

// staticBuf returns the buffer for the frame ID and whether the ECU owns
// that ID.
func (e *ECU) staticBuf(fid int) ([]*Instance, bool) {
	if fid < 0 || fid >= len(e.owned) || !e.owned[fid] {
		return nil, false
	}
	return e.staticBufs[fid], true
}

// SetCapacities bounds the CHI buffers: at most staticCap pending
// instances per static frame ID and dynCap in the dynamic priority queue
// (zero keeps a bound unlimited).
func (e *ECU) SetCapacities(staticCap, dynCap int) {
	e.staticCap = staticCap
	e.dynCap = dynCap
}

// Reset empties every CHI buffer and returns the CC to power-on state,
// keeping all backing memory: buffers are truncated (instance pointers
// niled for the GC), the per-message dynamic streams survive empty, and
// the slot counters return to 1.  Retained empty streams are invisible
// to the peek paths, so a reset ECU behaves exactly like a fresh
// NewECU with the same ownership — this is the per-replica rewind of
// the batched Monte-Carlo engine (DESIGN.md §15).
//
//perf:hotpath
func (e *ECU) Reset() {
	for _, fid := range e.staticIDs {
		buf := e.staticBufs[fid]
		for i := range buf {
			buf[i] = nil
		}
		e.staticBufs[fid] = buf[:0]
	}
	for _, st := range e.dynStreams {
		for i := range st.buf {
			st.buf[i] = nil
		}
		st.buf = st.buf[:0]
	}
	e.dynCount = 0
	e.staticCount = 0
	e.slotCounter[0] = 1
	e.slotCounter[1] = 1
}

// ResetSlotCounters sets both channels' slot counters back to 1, as the CC
// does at the start of each communication cycle.
//
//perf:hotpath
func (e *ECU) ResetSlotCounters() {
	e.slotCounter[0] = 1
	e.slotCounter[1] = 1
}

// chanIdx maps a channel to its slot-counter index, or -1 for channels
// the CC has no counter for.
func chanIdx(ch frame.Channel) int {
	switch ch {
	case frame.ChannelA:
		return 0
	case frame.ChannelB:
		return 1
	}
	return -1
}

// SlotCounter returns the CC slot counter for ch.
func (e *ECU) SlotCounter(ch frame.Channel) int {
	if i := chanIdx(ch); i >= 0 {
		return e.slotCounter[i]
	}
	return 0
}

// AdvanceSlotCounter increments the slot counter for ch and returns the new
// value.
func (e *ECU) AdvanceSlotCounter(ch frame.Channel) int {
	i := chanIdx(ch)
	if i < 0 {
		return 0
	}
	e.slotCounter[i]++
	return e.slotCounter[i]
}

// EnqueueStatic appends an instance to the static buffer of its frame ID.
func (e *ECU) EnqueueStatic(in *Instance) error {
	if in.Msg.Node != e.ID {
		return fmt.Errorf("%w: message %q is node %d, ECU is %d",
			ErrForeignMessage, in.Msg.Name, in.Msg.Node, e.ID)
	}
	buf, ok := e.staticBuf(in.Msg.ID)
	if !ok {
		return fmt.Errorf("%w: %d on node %d", ErrUnknownFrame, in.Msg.ID, e.ID)
	}
	if e.staticCap > 0 && len(buf) >= e.staticCap {
		return fmt.Errorf("%w: static buffer %d at %d", ErrBufferFull, in.Msg.ID, e.staticCap)
	}
	e.staticBufs[in.Msg.ID] = append(buf, in)
	e.staticCount++
	return nil
}

// PeekStatic returns the oldest pending instance for the frame ID that was
// released by time t, without removing it.  Expired instances at the head
// are returned too — the caller decides whether to drop them.
//
//perf:hotpath
func (e *ECU) PeekStatic(frameID int, t timebase.Macrotick) *Instance {
	buf, _ := e.staticBuf(frameID)
	for _, in := range buf {
		if in.Done {
			continue
		}
		if in.Release > t {
			return nil
		}
		return in
	}
	return nil
}

// PeekStaticBlind returns the oldest instance for the frame ID released by
// time t whose attempt count is below maxAttempts, including instances
// already delivered — the view of a protocol without acknowledgements that
// blindly transmits a fixed number of redundant copies.
//
//perf:hotpath
func (e *ECU) PeekStaticBlind(frameID int, t timebase.Macrotick, maxAttempts int) *Instance {
	buf, _ := e.staticBuf(frameID)
	for _, in := range buf {
		if in.Release > t {
			return nil
		}
		if in.Attempts < maxAttempts {
			return in
		}
	}
	return nil
}

// PeekDynamicForBlind is PeekStaticBlind's counterpart for the dynamic
// priority queue.
//
//perf:hotpath
func (e *ECU) PeekDynamicForBlind(frameID int, t timebase.Macrotick, maxAttempts int) *Instance {
	st := e.dynStreamFor(frameID)
	if st == nil {
		return nil
	}
	for _, in := range st.buf {
		if in.Release > t {
			return nil
		}
		if in.Attempts < maxAttempts {
			return in
		}
	}
	return nil
}

// PopStatic removes and returns the oldest pending instance for the frame
// ID released by time t.
func (e *ECU) PopStatic(frameID int, t timebase.Macrotick) *Instance {
	buf, _ := e.staticBuf(frameID)
	for i, in := range buf {
		if in.Done {
			continue
		}
		if in.Release > t {
			return nil
		}
		e.staticBufs[frameID] = removeAt(buf, i)
		e.staticCount--
		return in
	}
	return nil
}

// removeAt deletes index i from a buffer in place, reusing the backing
// array (the buffers are owned exclusively by the ECU, so shifting never
// aliases a caller's view of the slice).
func removeAt(buf []*Instance, i int) []*Instance {
	copy(buf[i:], buf[i+1:])
	buf[len(buf)-1] = nil
	return buf[:len(buf)-1]
}

// RemoveStatic deletes the exact instance from its static buffer and
// reports whether it was present.
func (e *ECU) RemoveStatic(target *Instance) bool {
	buf, ok := e.staticBuf(target.Msg.ID)
	if !ok {
		return false
	}
	for i, in := range buf {
		if in == target {
			e.staticBufs[target.Msg.ID] = removeAt(buf, i)
			e.staticCount--
			return true
		}
	}
	return false
}

// RequeueStatic puts an instance back at the head of its buffer (after a
// failed transmission that still has retransmission budget).
func (e *ECU) RequeueStatic(in *Instance) error {
	buf, ok := e.staticBuf(in.Msg.ID)
	if !ok {
		return fmt.Errorf("%w: %d on node %d", ErrUnknownFrame, in.Msg.ID, e.ID)
	}
	buf = append(buf, nil)
	copy(buf[1:], buf)
	buf[0] = in
	e.staticBufs[in.Msg.ID] = buf
	e.staticCount++
	return nil
}

// StaticBacklog returns the number of pending static instances across all
// owned frame IDs at time t.
func (e *ECU) StaticBacklog(t timebase.Macrotick) int {
	if e.staticCount == 0 {
		return 0
	}
	n := 0
	for _, fid := range e.staticIDs {
		for _, in := range e.staticBufs[fid] {
			if !in.Done && in.Release <= t {
				n++
			}
		}
	}
	return n
}

// DropExpiredStatic removes expired instances from all static buffers and
// appends them to dst, walking the owned frame IDs in ascending order so
// same-instant drops always land in the trace in the same sequence.  It
// returns the extended slice; a caller that passes the same scratch slice
// back every cycle stops allocating once it has grown to the largest
// per-cycle drop count.
func (e *ECU) DropExpiredStatic(dst []*Instance, t timebase.Macrotick) []*Instance {
	if e.staticCount == 0 {
		return dst
	}
	for _, fid := range e.staticIDs {
		buf := e.staticBufs[fid]
		keep := buf[:0]
		for _, in := range buf {
			if in.Expired(t) {
				dst = append(dst, in)
				e.staticCount--
			} else {
				keep = append(keep, in)
			}
		}
		e.staticBufs[fid] = keep
	}
	return dst
}

// EnqueueDynamic inserts a dynamic instance into its message's buffer.
func (e *ECU) EnqueueDynamic(in *Instance) error {
	if in.Msg.Node != e.ID {
		return fmt.Errorf("%w: message %q is node %d, ECU is %d",
			ErrForeignMessage, in.Msg.Name, in.Msg.Node, e.ID)
	}
	if e.dynCap > 0 && e.dynCount >= e.dynCap {
		return fmt.Errorf("%w: dynamic queue at %d", ErrBufferFull, e.dynCap)
	}
	st := e.dynStream(in.Msg.ID, in.Msg.Priority)
	// Releases arrive in (Release, Seq) order, so the common case is a
	// plain append; a requeued instance (failed attempt re-entering the
	// buffer) binary-inserts back into its sorted position.
	if n := len(st.buf); n == 0 || !releaseBefore(in, st.buf[n-1]) {
		st.buf = append(st.buf, in)
	} else {
		lo, hi := 0, len(st.buf)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if releaseBefore(st.buf[mid], in) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		st.buf = append(st.buf, nil)
		copy(st.buf[lo+1:], st.buf[lo:])
		st.buf[lo] = in
	}
	e.dynCount++
	return nil
}

// releaseBefore orders instances of one stream by (Release, Seq); Seq is
// unique within a message, so the order is total.
func releaseBefore(a, b *Instance) bool {
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.Seq < b.Seq
}

// dynStream returns the stream for the frame ID, creating and indexing it
// on first use.
func (e *ECU) dynStream(id, prio int) *dynStream {
	if st := e.dynStreamFor(id); st != nil {
		return st
	}
	st := &dynStream{id: id, prio: prio}
	if id >= len(e.dynByID) {
		grown := make([]*dynStream, id+1)
		copy(grown, e.dynByID)
		e.dynByID = grown
	}
	e.dynByID[id] = st
	// Insert in (priority, ID) order so PeekDynamicAny walks streams in
	// service order.
	lo, hi := 0, len(e.dynStreams)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		o := e.dynStreams[mid]
		if o.prio < prio || (o.prio == prio && o.id < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.dynStreams = append(e.dynStreams, nil)
	copy(e.dynStreams[lo+1:], e.dynStreams[lo:])
	e.dynStreams[lo] = st
	return st
}

// dynStreamFor returns the stream for the frame ID, or nil.
func (e *ECU) dynStreamFor(id int) *dynStream {
	if id >= 0 && id < len(e.dynByID) {
		return e.dynByID[id]
	}
	return nil
}

// PeekDynamicFor returns the highest-priority pending dynamic instance with
// the given frame ID released by t, or nil.  FlexRay transmits the head of
// the priority queue for the slot's frame ID.
//
//perf:hotpath
func (e *ECU) PeekDynamicFor(frameID int, t timebase.Macrotick) *Instance {
	st := e.dynStreamFor(frameID)
	if st == nil {
		return nil
	}
	return st.head(t)
}

// HasDynamicBuffered reports whether any dynamic instance is buffered
// (delivered-but-unremoved instances count).  It is the O(1) guard the
// per-slot steal scan uses to skip ECUs with nothing to offer — at low
// aperiodic load most slots see every queue empty, and walking the
// stream lists anyway dominated the static segment.
//
//perf:hotpath
func (e *ECU) HasDynamicBuffered() bool {
	return e.dynCount > 0
}

// PeekDynamicAny returns the highest-priority pending dynamic instance
// released by t regardless of frame ID (used by slack stealing, which is
// not bound to the FTDMA slot counter), or nil.
//
//perf:hotpath
func (e *ECU) PeekDynamicAny(t timebase.Macrotick) *Instance {
	if e.dynCount == 0 {
		return nil
	}
	var best *Instance
	for _, st := range e.dynStreams {
		// Streams walk in ascending (priority, ID); once the stream
		// priority passes the best head's, no later stream can win.
		if best != nil && st.prio > best.Msg.Priority {
			break
		}
		head := st.head(t)
		if head == nil {
			continue
		}
		if best == nil || dynBefore(head, best) {
			best = head
		}
	}
	return best
}

// dynBefore is the dynamic service order (priority, release, ID, seq) —
// the same total order the former priority heap used.
func dynBefore(a, b *Instance) bool {
	if a.Msg.Priority != b.Msg.Priority {
		return a.Msg.Priority < b.Msg.Priority
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	if a.Msg.ID != b.Msg.ID {
		return a.Msg.ID < b.Msg.ID
	}
	return a.Seq < b.Seq
}

// RemoveDynamic deletes the instance from its message's buffer.
func (e *ECU) RemoveDynamic(target *Instance) bool {
	st := e.dynStreamFor(target.Msg.ID)
	if st == nil {
		return false
	}
	for i, in := range st.buf {
		if in == target {
			st.buf = removeAt(st.buf, i)
			e.dynCount--
			return true
		}
	}
	return false
}

// DynamicBacklog returns the number of pending dynamic instances at t.
func (e *ECU) DynamicBacklog(t timebase.Macrotick) int {
	n := 0
	for _, st := range e.dynStreams {
		for _, in := range st.buf {
			if in.Release > t {
				break // release-sorted: the rest are later
			}
			if !in.Done {
				n++
			}
		}
	}
	return n
}

// DropExpiredDynamic removes expired instances from the dynamic buffers
// and appends them to dst in (priority, frame ID, release, seq) order,
// which is deterministic across runs.  It returns the extended slice, as
// DropExpiredStatic does.
func (e *ECU) DropExpiredDynamic(dst []*Instance, t timebase.Macrotick) []*Instance {
	if e.dynCount == 0 {
		return dst
	}
	for _, st := range e.dynStreams {
		// Scan up to the first expired instance before rewriting anything:
		// most cycles drop nothing, and the untouched prefix needs no
		// pointer writes.
		i := 0
		for i < len(st.buf) && !st.buf[i].Expired(t) {
			i++
		}
		if i == len(st.buf) {
			continue
		}
		keep := st.buf[:i]
		for _, in := range st.buf[i:] {
			if in.Expired(t) {
				dst = append(dst, in)
				e.dynCount--
			} else {
				keep = append(keep, in)
			}
		}
		for j := len(keep); j < len(st.buf); j++ {
			st.buf[j] = nil
		}
		st.buf = keep
	}
	return dst
}

// StaticFrameIDs returns the owned static frame IDs.
func (e *ECU) StaticFrameIDs() []int {
	return append([]int(nil), e.staticIDs...)
}

// dynStream is the FIFO buffer of one aperiodic message: instances sorted
// by (Release, Seq).
type dynStream struct {
	id, prio int
	buf      []*Instance
}

// head returns the first undelivered instance released by t, or nil.  The
// buffer is release-sorted, so the first undelivered entry is the minimum
// of the (priority, release, ID, seq) service order within this stream.
//
//perf:hotpath
func (st *dynStream) head(t timebase.Macrotick) *Instance {
	for _, in := range st.buf {
		if in.Done {
			continue
		}
		if in.Release > t {
			return nil
		}
		return in
	}
	return nil
}
