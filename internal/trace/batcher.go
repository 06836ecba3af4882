package trace

// Batcher accumulates events into one reusable Block and delivers it to a
// sink via EmitBlockTo whenever it fills or is flushed.  Delivery is
// synchronous and sinks must not retain a block, so the same block is
// refilled as soon as EmitBlockTo returns.  It is the shared engine behind
// the batching producers (atom.Probe, mipsi.Native).  The block is
// allocated lazily, so an idle producer pays nothing.
type Batcher struct {
	sink  Sink
	blk   *Block
	stats BatchStats
}

// NewBatcher returns a batcher delivering to sink (Discard when nil).
func NewBatcher(sink Sink) *Batcher {
	if sink == nil {
		sink = Discard
	}
	return &Batcher{sink: sink}
}

// Append buffers e, flushing with FlushFill when the block fills.
func (t *Batcher) Append(e Event) {
	b := t.blk
	if b == nil {
		b = &Block{}
		b.Reset()
		t.blk = b
	}
	b.Append(e)
	if b.N == BlockCap {
		t.Flush(FlushFill)
	}
}

// NeedMark reports whether buffered events sit after the last recorded
// segment boundary — i.e. whether Mark would record anything.  Producers
// check it before computing a tag, so back-to-back attribution changes
// with no events between them cost nothing.
func (t *Batcher) NeedMark() bool {
	b := t.blk
	if b == nil || b.N == 0 {
		return false
	}
	m := b.Marks
	return len(m) == 0 || m[len(m)-1].End != b.N
}

// Mark records an attribution segment boundary at the current buffer
// position: the events since the previous boundary (or block start) are
// tagged with tag.  Boundaries that would close an empty segment are
// dropped — the first tag already covers the events, and zero events need
// no account.
func (t *Batcher) Mark(tag any) {
	if !t.NeedMark() {
		return
	}
	b := t.blk
	b.Marks = append(b.Marks, SegMark{End: b.N, Tag: tag})
}

// Flush delivers the buffered events (if any), counting the block under
// reason, and empties the block for reuse.
func (t *Batcher) Flush(reason FlushReason) {
	b := t.blk
	if b == nil || b.N == 0 {
		return
	}
	t.stats.count(b.N, reason)
	EmitBlockTo(t.sink, b)
	b.Reset()
}

// Stats returns the accumulated batch accounting.
func (t *Batcher) Stats() BatchStats { return t.stats }
