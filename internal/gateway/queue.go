package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/core"
)

// The /v1/queue endpoints expose the broker's at-least-once tier to
// network consumers (the paper's SMS-channel class of clients, which
// must not lose bulletins). A queue is a named core.AckSubscription;
// the consumer loop is fetch → process → ack, with redeliver returning
// crashed-consumer work to the queue head.

// defaultQueueCapacity matches core.SubscribeAck's own default; applied
// here so the MaxBuffer clamp covers defaulted capacities too.
const defaultQueueCapacity = 1024

// queueDelivery is the wire form of one fetched delivery.
type queueDelivery struct {
	Seq     uint64   `json:"seq"`
	Message Envelope `json:"message"`
}

// queueInfo is the wire form of a queue's state.
type queueInfo struct {
	Queue    string `json:"queue"`
	Pattern  string `json:"pattern"`
	Capacity int    `json:"capacity"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"inflight"`
	Acked    int    `json:"acked"`
	Dropped  int    `json:"dropped"`
}

func infoOf(id string, sub *core.AckSubscription) queueInfo {
	queued, inflight := sub.Pending()
	return queueInfo{
		Queue:    id,
		Pattern:  sub.Pattern,
		Capacity: sub.Capacity(),
		Queued:   queued,
		InFlight: inflight,
		Acked:    sub.Acked(),
		Dropped:  sub.Dropped(),
	}
}

// queueByID resolves the {id} path segment, writing a 404 on miss.
func (g *Gateway) queueByID(w http.ResponseWriter, r *http.Request) (string, *core.AckSubscription, bool) {
	id := r.PathValue("id")
	g.qmu.Lock()
	sub, ok := g.queues[id]
	g.qmu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown queue %q", id)
		return id, nil, false
	}
	return id, sub, true
}

// handleQueueCreate registers a new ack queue:
//
//	POST /v1/queue?pattern=bulletin/%23&capacity=512
func (g *Gateway) handleQueueCreate(w http.ResponseWriter, r *http.Request) {
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		httpError(w, http.StatusBadRequest, "missing ?pattern=")
		return
	}
	capacity, err := queryInt(r, "capacity", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Clamp like the SSE buffer: queue memory is server memory, and the
	// capacity is client-supplied. The clamp must also cover the
	// default (SubscribeAck would turn <= 0 into 1024, which could
	// exceed a small operator-configured MaxBuffer).
	if capacity <= 0 {
		capacity = defaultQueueCapacity
	}
	if capacity > g.cfg.MaxBuffer {
		capacity = g.cfg.MaxBuffer
	}
	sub, err := g.cfg.Broker.SubscribeAck(pattern, capacity)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.qmu.Lock()
	if len(g.queues) >= maxQueues {
		g.qmu.Unlock()
		g.cfg.Broker.UnsubscribeAck(sub)
		httpError(w, http.StatusTooManyRequests, "queue limit %d reached", maxQueues)
		return
	}
	g.nextQ++
	id := fmt.Sprintf("q%d", g.nextQ)
	g.queues[id] = sub
	g.qmu.Unlock()
	writeJSON(w, http.StatusCreated, infoOf(id, sub))
}

// handleQueueList reports every registered queue in id order.
func (g *Gateway) handleQueueList(w http.ResponseWriter, r *http.Request) {
	g.qmu.Lock()
	infos := make([]queueInfo, 0, len(g.queues))
	for id, sub := range g.queues {
		infos = append(infos, infoOf(id, sub))
	}
	g.qmu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Queue < infos[j].Queue })
	writeJSON(w, http.StatusOK, map[string]any{"queues": infos})
}

// handleQueueStats reports one queue's state.
func (g *Gateway) handleQueueStats(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := g.queueByID(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoOf(id, sub))
}

// handleQueueDelete unsubscribes and forgets a queue. Undelivered work
// is discarded with it — this is the consumer saying "done".
func (g *Gateway) handleQueueDelete(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := g.queueByID(w, r)
	if !ok {
		return
	}
	g.cfg.Broker.UnsubscribeAck(sub)
	g.qmu.Lock()
	delete(g.queues, id)
	g.qmu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleQueueFetch moves up to ?max= queued deliveries in-flight and
// returns them. Unacked deliveries stay in-flight until acked or
// redelivered.
//
//	GET /v1/queue/q1/fetch?max=10
func (g *Gateway) handleQueueFetch(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := g.queueByID(w, r)
	if !ok {
		return
	}
	max, err := queryInt(r, "max", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ds := sub.Fetch(max)
	out := make([]queueDelivery, len(ds))
	for i, d := range ds {
		out[i] = queueDelivery{Seq: d.Seq, Message: envelopeOf(d.Message)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queue": id, "deliveries": out})
}

// handleQueueAck acknowledges deliveries by sequence number, via
// ?seq=N or a JSON body {"seqs":[...]}. An unknown sequence number
// (double-ack, ack-after-redeliver) returns 409 along with how many of
// the batch were acked before the conflict.
func (g *Gateway) handleQueueAck(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := g.queueByID(w, r)
	if !ok {
		return
	}
	var seqs []uint64
	if s := r.URL.Query().Get("seq"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seq=%q", s)
			return
		}
		seqs = []uint64{n}
	} else {
		var body struct {
			Seqs []uint64 `json:"seqs"`
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPublishBytes))
		if err != nil || json.Unmarshal(raw, &body) != nil || len(body.Seqs) == 0 {
			httpError(w, http.StatusBadRequest, `want ?seq=N or body {"seqs":[...]}`)
			return
		}
		seqs = body.Seqs
	}
	acked := 0
	for _, seq := range seqs {
		if err := sub.Ack(seq); err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{
				"queue": id, "acked": acked, "error": err.Error(),
			})
			return
		}
		acked++
	}
	writeJSON(w, http.StatusOK, map[string]any{"queue": id, "acked": acked})
}

// handleQueueRedeliver returns every in-flight delivery to the queue
// head (crashed-consumer recovery).
func (g *Gateway) handleQueueRedeliver(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := g.queueByID(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"queue": id, "redelivered": sub.Redeliver()})
}
