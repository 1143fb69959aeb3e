package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// Sentinels for why a stream's drain stopped it: the client's write
// failed (the stream is dead, say nothing), the request or gateway
// context ended, or the consumer fell too far behind its queue. Any
// other error is a persistent log replay failure (tell the client).
var (
	errClientGone   = errors.New("gateway: client write failed")
	errStreamClosed = errors.New("gateway: stream context ended")
	errSlowConsumer = errors.New("gateway: subscription dropped past the limit")
)

// handleSubscribe streams matching messages to the client as
// Server-Sent Events. Each message event's id: field carries the
// broker-assigned offset — durable when an event log is attached — so a
// client that drops mid-stream resumes exactly where it left off by
// reconnecting with the standard Last-Event-ID header (browsers'
// EventSource sends it automatically) or an explicit ?from=<offset>
// (inclusive).
//
// Two delivery sources share the endpoint and the one pump loop:
//
//   - A fresh subscription is backed by a bounded broker queue
//     (liveSource), so wildcard matching, retained replay and QoS drop
//     accounting are exactly the in-process semantics. A client whose
//     subscription drops more than the configured limit is disconnected
//     with a terminal "goodbye" event (slow-consumer eviction).
//
//   - A resuming client on a durable broker is served straight from the
//     event log (tailSource): history first, then the advancing tail, in
//     strict offset order, each event exactly once. There is no queue
//     to overflow, so backlog lives on disk and slow consumers are
//     never evicted — only a transport-stalled client is cut, by the
//     per-write deadline. Without a log, resume is best-effort:
//     retained replay plus offset filtering on the live queue.
//
//     GET /subscribe?pattern=obs/%2B/Rainfall&buffer=64&policy=oldest&from=1042
//
// Events:
//
//	event: message   data: Envelope JSON        (id: = durable offset)
//	event: goodbye   data: {"reason", "dropped"} (terminal, no id)
//	: keep-alive                                 (comment heartbeat, idle streams only)
func (g *Gateway) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		httpError(w, http.StatusBadRequest, "missing ?pattern=")
		return
	}
	if err := core.ValidatePattern(pattern); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	buffer, err := queryInt(r, "buffer", g.cfg.DefaultBuffer)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if buffer < 1 {
		buffer = 1
	}
	if buffer > g.cfg.MaxBuffer {
		buffer = g.cfg.MaxBuffer
	}
	policy := core.DropOldest
	switch r.URL.Query().Get("policy") {
	case "", "oldest":
	case "newest":
		policy = core.DropNewest
	default:
		httpError(w, http.StatusBadRequest, "bad policy (want oldest|newest)")
		return
	}
	// Resume cursor: ?from= is the first offset to deliver (inclusive)
	// and wins over Last-Event-ID, which is the last offset the client
	// saw (exclusive). Internally both become "deliver offsets > after".
	resume := false
	var after uint64
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			after, resume = v, true
		}
	}
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad from=%q", s)
			return
		}
		resume = true
		if v > 0 {
			after = v - 1
		} else {
			after = 0
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	if !g.addStream() {
		httpError(w, http.StatusServiceUnavailable, "gateway is shutting down")
		return
	}
	defer g.wg.Done()

	// A cursor from a different log generation (the directory was wiped
	// or replaced, offsets restarted) can point past the tail; left
	// alone it would suppress every delivery until the new sequence
	// climbed past it. Clamp to the tail: such a client gets the live
	// feed from now on.
	if resume {
		if next := g.cfg.Broker.NextOffset(); after >= next {
			after = next - 1
		}
		g.sseResumed.Add(1)
	}
	st := &stream{g: g, w: w, r: r, fl: fl, rc: http.NewResponseController(w)}
	if resume && g.cfg.Broker.Log() != nil {
		g.pump(st, &tailSource{b: g.cfg.Broker, pattern: pattern, scanCursor: after + 1, lastSent: after})
		return
	}

	sub, err := g.cfg.Broker.Subscribe(pattern, buffer, policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer g.cfg.Broker.Unsubscribe(sub)
	g.pump(st, &liveSource{sub: sub, replayDropped: sub.Dropped(), dropLimit: buffer, after: after})
}

// stream is one SSE response being written: the client side of the
// pump, shared by both sources.
type stream struct {
	g  *Gateway
	w  http.ResponseWriter
	r  *http.Request
	fl http.Flusher
	rc *http.ResponseController
	// frames is the live drain's reusable batch of shared frames; the log
	// drain renders its frames into out instead, rendered counting them.
	// wrote reports a data write since the pump last looked, which pushes
	// the keep-alive back.
	frames   net.Buffers
	out      frameWriter
	rendered int
	wrote    bool
}

// deadline arms the per-write deadline: a transport-stalled client (dead
// laptop, NAT half-open) must fail its write and unwind the pump rather
// than block it forever — a global server WriteTimeout can't be used on
// an endless stream. SetWriteDeadline errors (unsupported writer) are
// ignored; writes then simply have no deadline.
func (st *stream) deadline() {
	_ = st.rc.SetWriteDeadline(time.Now().Add(st.g.cfg.WriteTimeout))
}

// closed reports whether the request or the gateway has ended.
func (st *stream) closed() bool {
	return st.r.Context().Err() != nil || st.g.ctx.Err() != nil
}

// flush writes the batch — st.frames or the frames rendered into st.out
// — as one client write and one Flush, and empties it: a drain empties
// its source per wake anyway, so per-message write/flush cycles would
// only buy chunked-transfer overhead and syscalls per event instead of
// per drain.
func (st *stream) flush() error {
	n := len(st.frames) + st.rendered
	if n == 0 {
		return nil
	}
	st.deadline()
	var err error
	if st.rendered > 0 {
		_, err = st.w.Write(st.out.buf.Bytes())
		st.out.buf.Reset()
		st.rendered = 0
	} else {
		err = writeFrames(st.w, st.frames)
		st.frames = st.frames[:0]
	}
	if err != nil {
		return errClientGone
	}
	st.g.sseEvents.Add(int64(n))
	st.g.sseWrites.Add(1)
	st.fl.Flush()
	st.wrote = true
	return nil
}

// end closes the stream according to why it stopped: silence for a dead
// client or a cancelled request, a shutdown goodbye when the gateway is
// draining, an eviction notice for a slow consumer, and a replay-failed
// goodbye when the log itself could not be read — the client knows to
// reconnect rather than wait.
func (st *stream) end(err error, dropped int) {
	switch {
	case errors.Is(err, errClientGone):
	case errors.Is(err, errStreamClosed):
		if st.g.ctx.Err() != nil {
			st.goodbye("shutdown", dropped)
		}
	case errors.Is(err, errSlowConsumer):
		st.g.slowDisconnects.Add(1)
		st.goodbye("slow-consumer", dropped)
	default:
		st.goodbye("replay-failed", 0)
	}
}

// goodbye emits the terminal event; errors are moot, the stream is
// ending either way. Goodbyes carry no id: the SSE id is the resume
// cursor, and a terminal notice must not disturb it.
func (st *stream) goodbye(reason string, dropped int) {
	switch reason {
	case "shutdown":
		st.g.goodbyeShutdown.Add(1)
	case "slow-consumer":
		st.g.goodbyeSlow.Add(1)
	case "replay-failed":
		st.g.goodbyeReplayFailed.Add(1)
	}
	st.deadline()
	_ = writeEvent(st.w, "goodbye", map[string]any{
		"reason":  reason,
		"dropped": dropped,
	}, 0)
	st.fl.Flush()
}

// source is where a stream's events come from. The pump is the consumer
// half of a wake protocol whose producer half is the broker's publish
// path: the producer makes its events visible (enqueue, or log append)
// and then signals without blocking; the consumer waits for the signal
// and then drains everything visible. A signal is never lost — one
// raised mid-drain is still pending when the pump waits again — though
// it can be spurious (the drain it triggers finds that the previous one
// already took the events), which costs one empty drain.
type source interface {
	// arm returns the signal to wait on: it fires once there is, or may
	// be, something to drain — immediately if there already is.
	arm() <-chan struct{}
	// drain writes everything currently deliverable to st. A non-nil
	// error ends the stream (see stream.end).
	drain(st *stream) error
	// dropped is the loss count a goodbye reports.
	dropped() int
}

// fired is a signal that has already fired.
var fired = func() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// pump is the one SSE delivery loop: headers, then arm → wait → drain,
// woken by the source's signal, the two contexts, or — on an idle stream
// only — the keep-alive. Nothing on the publish→deliver path is timed:
// an event goes out as soon as this goroutine runs, whatever arrived
// while the previous write was in flight goes out in the next one, and
// an idle stream costs no wakeups at all.
func (g *Gateway) pump(st *stream, src source) {
	h := st.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	st.deadline()
	st.w.WriteHeader(http.StatusOK)
	st.fl.Flush()

	g.sseStreams.Add(1)
	g.sseActive.Add(1)
	defer g.sseActive.Add(-1)

	keepAlive := time.NewTimer(g.cfg.KeepAlive)
	defer keepAlive.Stop()
	for {
		select {
		case <-st.r.Context().Done():
			return
		case <-g.ctx.Done():
			st.goodbye("shutdown", src.dropped())
			return
		case <-keepAlive.C:
			st.deadline()
			if _, err := fmt.Fprint(st.w, ": keep-alive\n\n"); err != nil {
				return
			}
			st.fl.Flush()
			keepAlive.Reset(g.cfg.KeepAlive)
			continue
		case <-src.arm():
			g.sseWakeups.Add(1)
		}
		if err := src.drain(st); err != nil {
			st.end(err, src.dropped())
			return
		}
		if st.wrote {
			// Data is its own heartbeat: only KeepAlive of silence earns
			// a comment. The pump is the timer channel's only reader, so
			// a non-blocking receive clears a fire that raced the write.
			st.wrote = false
			if !keepAlive.Stop() {
				select {
				case <-keepAlive.C:
				default:
				}
			}
			keepAlive.Reset(g.cfg.KeepAlive)
		}
	}
}

// liveSource delivers from a bounded broker mailbox: at most once, in
// the order the mailbox received it, evicting a consumer that lets the
// mailbox overflow.
type liveSource struct {
	sub *core.Subscription
	// replayDropped is the drop count right after Subscribe. Retained
	// replay happens inside Subscribe; a catalogue larger than the
	// client's buffer overflows it before the client had any chance to
	// read. Those drops are the replay's, not the consumer's.
	replayDropped int
	// dropLimit is the client's buffer size: a consumer that loses a
	// whole buffer's worth of messages is evicted.
	dropLimit int
	// after suppresses offsets the client already saw on a best-effort
	// resume without a log (0 = deliver everything); history itself is
	// gone.
	after uint64
}

func (s *liveSource) arm() <-chan struct{} { return s.sub.Ready() }

// dropped reports live-stream losses only, consistent with the eviction
// threshold.
func (s *liveSource) dropped() int { return s.sub.Dropped() - s.replayDropped }

func (s *liveSource) drain(st *stream) error {
	// Evict before draining: a consumer that has already lost dropLimit
	// messages is not keeping up, and the backlog we would write next is
	// exactly what it failed to absorb. (On a durable broker the evicted
	// client recovers the gap by reconnecting with Last-Event-ID —
	// resumed streams are log-backed and never evicted.)
	if s.dropped() >= s.dropLimit {
		return errSlowConsumer
	}
	for _, m := range s.sub.Poll(0) {
		if m.Offset > s.after {
			st.frames = append(st.frames, messageFrame(m))
		}
	}
	return st.flush()
}

// tailSource delivers straight from the event log: no broker queue at
// all. The log totally orders delivery by offset, so the stream cannot
// miss, duplicate, or reorder events — not even when racing publishers
// offer queue messages out of offset order, or when the client reads
// slower than the world publishes (the backlog lives on disk, not in a
// bounded buffer). Each commit wakes the parked stream for one scan to
// the then-current end; commits that land during it are covered by that
// scan or the next, so wakes coalesce under load.
type tailSource struct {
	b       *core.Broker
	pattern string
	// scanCursor is the next offset to scan from; lastSent the highest
	// offset written to the client (a retried scan re-reads records).
	scanCursor, lastSent uint64
}

// arm takes the commit signal first and compares offsets second, the
// order CommitSignal requires: history behind the cursor at connect, or
// a commit that landed since the last scan's snapshot, fires at once.
func (s *tailSource) arm() <-chan struct{} {
	commit := s.b.CommitSignal()
	if s.b.NextOffset() > s.scanCursor {
		return fired
	}
	return commit
}

func (s *tailSource) dropped() int { return 0 }

// drain streams one scan of the log to the client: records with offset
// > lastSent matching pattern, from scanCursor to the log's end at scan
// time. A transient replay error — compaction can remove a segment file
// between the scan's snapshot and its open — retries with a fresh
// snapshot; only repeated failure without progress is surfaced, so a
// recoverable race never silently skips history. Client writes and both
// contexts are checked per record, so shutdown cannot hang behind a
// long catch-up.
func (s *tailSource) drain(st *stream) error {
	for retries := 0; ; {
		if st.closed() {
			return errStreamClosed
		}
		wrote := 0
		next, err := s.b.ReplayFrom(s.scanCursor, s.pattern, func(m core.Message) error {
			if st.closed() {
				return errStreamClosed
			}
			// A retried scan re-reads delivered records; skip them.
			if m.Offset <= s.lastSent {
				return nil
			}
			// A message read back from the log is delivered once and
			// dropped: its frame goes straight into the stream's buffer
			// instead of being built and cached per message (messageFrame).
			st.out.write(m, m.PayloadJSON())
			st.rendered++
			s.lastSent = m.Offset
			wrote++
			if st.rendered >= catchUpBatch {
				return st.flush()
			}
			return nil
		})
		// lastSent has already advanced past every queued frame, so the
		// batch MUST drain before any retry decision — an unflushed frame
		// plus a rescan would skip those records for good.
		if ferr := st.flush(); ferr != nil {
			return ferr
		}
		if err == nil {
			s.scanCursor = next
			return nil
		}
		if errors.Is(err, errClientGone) || errors.Is(err, errStreamClosed) {
			return err
		}
		if wrote > 0 {
			retries = 0
		}
		if retries++; retries >= 3 {
			return err
		}
	}
}

// catchUpBatch bounds how many frames a log catch-up accumulates before
// forcing a write+flush, so a multi-gigabyte history replay never
// buffers unbounded memory per client.
const catchUpBatch = 64

// coalesceMax bounds the pooled buffer writeFrames coalesces into; a
// drain whose frames total more than this skips the copy and hands the
// batch to net.Buffers instead (writev on connections that support it).
const coalesceMax = 64 << 10

var coalescePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}

// writeFrames writes a batch of prebuilt SSE frames with one client
// write instead of one per frame. Frames are message-cache-shared and
// must not be modified, so small batches are copied into a pooled
// buffer (one Write → one chunked-transfer chunk → one syscall) and
// jumbo batches go through net.Buffers, which uses writev where the
// underlying connection supports it and sequential writes elsewhere.
// The frames slice is consumed either way — callers reset it.
func writeFrames(w http.ResponseWriter, frames net.Buffers) error {
	if len(frames) == 0 {
		return nil
	}
	if len(frames) == 1 {
		_, err := w.Write(frames[0])
		return err
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	if total > coalesceMax {
		_, err := frames.WriteTo(w)
		return err
	}
	bp := coalescePool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, f := range frames {
		buf = append(buf, f...)
	}
	_, err := w.Write(buf)
	if cap(buf) <= coalesceMax {
		*bp = buf[:0]
		coalescePool.Put(bp)
	}
	return err
}

// messageFrame renders (or fetches the cached) complete SSE frame for a
// message (see frameWriter.write).
//
// TestMessageFrameAllocs pins its allocation budget.
func messageFrame(m core.Message) []byte {
	// The render closure runs at most once per published message —
	// SharedFrame caches the frame, so every later subscriber gets the
	// prebuilt bytes and the steady-state call allocates nothing.
	return m.SharedFrame(func(payloadJSON []byte) []byte {
		fw := framePool.Get().(*frameWriter)
		fw.write(m, payloadJSON)
		frame := bytes.Clone(fw.buf.Bytes())
		fw.buf.Reset()
		if fw.buf.Cap() <= coalesceMax {
			framePool.Put(fw)
		}
		return frame
	})
}

var framePool = sync.Pool{New: func() any { return new(frameWriter) }}

// frameWriter renders SSE message frames into buf through enc, an
// encoder bound to buf, so a frame costs no intermediate JSON slice.
type frameWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
	env Envelope
}

// write appends m's frame to buf: "id: <offset>\nevent: message\ndata:
// <envelope JSON>\n\n". The id: line is omitted for offset 0 (a message
// that never passed through a broker) so the client's Last-Event-ID
// keeps pointing at real history.
func (fw *frameWriter) write(m core.Message, payloadJSON []byte) {
	if fw.enc == nil {
		fw.enc = json.NewEncoder(&fw.buf)
	}
	if m.Offset > 0 {
		fw.buf.WriteString("id: ")
		fw.buf.Write(strconv.AppendUint(fw.buf.AvailableBuffer(), m.Offset, 10))
		fw.buf.WriteByte('\n')
	}
	fw.buf.WriteString("event: message\ndata: ")
	fw.env = Envelope{Offset: m.Offset, Topic: m.Topic, Time: m.Time, Payload: payloadJSON, Headers: m.Headers}
	// Encode writes nothing on error and ends the JSON with a newline,
	// the first of the two closing the frame.
	if err := fw.enc.Encode(&fw.env); err != nil {
		// Only a non-marshalable time (year outside [0,9999]) can land
		// here; degrade to a minimal envelope rather than killing the
		// stream.
		fw.env.Time = time.Time{}
		_ = fw.enc.Encode(&fw.env)
	}
	fw.env = Envelope{}
	fw.buf.WriteByte('\n')
}

// writeEvent writes one non-message SSE frame (goodbye). id 0 omits the
// id: line so the client's Last-Event-ID keeps pointing at real
// history.
func writeEvent(w http.ResponseWriter, event string, data any, id uint64) error {
	body, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, body)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
	}
	return err
}
