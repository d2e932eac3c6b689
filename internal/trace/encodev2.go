package trace

import (
	"io"
	"sync"
	"sync/atomic"
)

// Worker-parallel v2 encode. The write side mirrors the decode side's
// block parallelism: rank payloads are delta+varint encoded concurrently
// into pooled buffers and committed to the BlockWriter in file order —
// encode out of order, write in order — so the container bytes are
// identical to the sequential encoder's.

// EncoderOptions configures the v2 trace encoder.
type EncoderOptions struct {
	// Workers bounds the number of concurrent block encoders.
	// Non-positive means GOMAXPROCS; 1 encodes inline with no
	// goroutines. The encoded bytes are identical at every setting.
	Workers int
}

// WriteBlocksParallel encodes and commits n blocks: payload i is
// produced by encode(i, dst) — which appends to dst and returns the
// extended slice — on a bounded worker pool, and committed to the
// container in index order. meta reports block i's rank id and record
// count. Payload buffers are recycled through a sync.Pool, and in-flight
// encoded-but-uncommitted blocks are bounded by the worker count, so
// memory stays at O(workers) blocks however many blocks are written.
//
// A commit error (failing or short destination, oversized payload)
// stops all workers, is latched on the BlockWriter, and is returned;
// every later BlockWriter call surfaces the same error.
//
// encode must be safe for concurrent calls on distinct indexes; with
// workers <= 1 (or n <= 1) everything runs inline on the caller's
// goroutine, which is the sequential reference path.
func (b *BlockWriter) WriteBlocksParallel(n, workers int, meta func(i int) (rank, records uint32), encode func(i int, dst []byte) []byte) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var payload []byte
		for i := 0; i < n; i++ {
			rank, records := meta(i)
			payload = encode(i, payload[:0])
			if err := b.WriteBlock(rank, records, payload); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		claim   atomic.Int64
		pool    sync.Pool
		wg      sync.WaitGroup
		sem     = make(chan struct{}, workers)
		abort   = make(chan struct{})
		results = make([]chan *[]byte, n)
	)
	for i := range results {
		results[i] = make(chan *[]byte, 1)
	}
	claim.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Acquire the in-flight slot BEFORE claiming an index,
				// exactly like the decode pool: the committer consumes in
				// strict index order and frees a slot only after
				// committing, so the worker holding the lowest pending
				// index must own a slot or the pipeline wedges.
				select {
				case sem <- struct{}{}:
				case <-abort:
					return
				}
				i := int(claim.Add(1))
				if i >= n {
					<-sem
					return
				}
				bp, _ := pool.Get().(*[]byte)
				if bp == nil {
					bp = new([]byte)
				}
				*bp = encode(i, (*bp)[:0])
				// Per-index channels have capacity 1 and receive exactly
				// one send, so delivery never blocks and an aborted commit
				// loop cannot strand a worker here.
				results[i] <- bp
			}
		}()
	}
	var failErr error
	for i := 0; i < n; i++ {
		bp := <-results[i]
		rank, records := meta(i)
		err := b.WriteBlock(rank, records, *bp)
		pool.Put(bp)
		<-sem
		if err != nil {
			failErr = err
			break
		}
	}
	close(abort)
	wg.Wait()
	return failErr
}

// EncodeV2With writes t to w in the columnar v2 trace format (TRC2): one
// delta+varint block per rank, checksummed and indexed by the footer.
// Rank blocks are encoded concurrently by opts.Workers goroutines and
// committed in file order; the bytes are identical at every worker
// count. The v1 format remains the default interchange form; see
// docs/FORMATS.md for when to prefer v2.
func EncodeV2With(w io.Writer, t *Trace, opts EncoderOptions) error {
	bw := NewBlockWriter(w)
	nt, err := writeTraceHeader(bw, traceMagicV2, t)
	if err != nil {
		return err
	}
	err = bw.WriteBlocksParallel(len(t.Ranks), DefaultDecodeWorkers(opts.Workers),
		func(i int) (uint32, uint32) {
			return uint32(t.Ranks[i].Rank), uint32(len(t.Ranks[i].Events))
		},
		func(i int, dst []byte) []byte {
			return AppendEventsV2(dst, nt, t.Ranks[i].Events)
		})
	if err != nil {
		return err
	}
	return bw.Finish(traceMagicV2)
}

// UvarintSize returns len(binary.AppendUvarint(nil, v)) without
// encoding.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintSize returns len(binary.AppendVarint(nil, v)) without encoding
// (zigzag mapping, then uvarint length).
func VarintSize(v int64) int {
	return UvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

// EventsV2Size returns len(AppendEventsV2(nil, nt, events)) as a pure
// size walk — no bytes are produced. nt must already hold every event
// name, as it does after the encoders' prescan.
func EventsV2Size(nt NameIDs, events []Event) int64 {
	var n int64
	var prev Time
	for _, e := range events {
		n += int64(UvarintSize(uint64(nt.ID(e.Name))))
		n += int64(UvarintSize(uint64(e.Kind)))
		n += int64(VarintSize(e.Enter - prev))
		prev = e.Enter
		n += int64(VarintSize(e.Exit - e.Enter))
		n += int64(VarintSize(int64(e.Peer)))
		n += int64(VarintSize(int64(e.Tag)))
		n += int64(VarintSize(e.Bytes))
		n += int64(VarintSize(int64(e.Root)))
	}
	return n
}
