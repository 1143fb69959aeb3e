package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Handler consumes one pushed message. Handlers for one subscription are
// never invoked concurrently and see messages in publish order; distinct
// subscriptions run in parallel across the dispatcher's worker pool.
type Handler func(m Message)

// dispatchBatch bounds how many messages one worker turn drains from a
// mailbox before requeueing it, so a hot subscription cannot starve the
// others.
const dispatchBatch = 256

// handlerSub wraps a Subscription with a handler: every offer lands in
// the bounded mailbox as usual, and the mailbox's wake schedules it onto
// the dispatcher's worker pool. Backpressure semantics (capacity, drop
// policy) are exactly those of the underlying subscription.
type handlerSub struct {
	*Subscription
	fn Handler
	b  *Broker
	// scheduled is the mailbox's run state: true while the subscription
	// is queued for, or being drained by, a worker.
	scheduled atomic.Bool
}

// wake schedules the mailbox onto the worker pool — the handler
// flavor's consumer is a worker turn, not a parked goroutine. A wake that
// finds the mailbox already scheduled is dropped; the worker re-checks
// Pending after its turn, so nothing sits unserved.
func (h *handlerSub) wake() {
	if d := h.b.dispatcher(); d != nil {
		d.schedule(h)
	}
}

// dispatcher is the push-mode worker pool: workers drain scheduled
// handler mailboxes and invoke their handlers.
type dispatcher struct {
	mu      sync.Mutex
	work    *sync.Cond // signaled when queue grows or on stop
	idle    *sync.Cond // broadcast when inFlight returns to zero
	queue   []*handlerSub
	stopped bool
	// workers is the pool size, fixed at construction (exposed in
	// BrokerStats).
	workers int
	// inFlight counts mailboxes that are queued or being drained.
	inFlight int
	wg       sync.WaitGroup
}

func newDispatcher(workers int) *dispatcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &dispatcher{workers: workers}
	d.work = sync.NewCond(&d.mu)
	d.idle = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// schedule queues a mailbox unless it is already queued or draining.
func (d *dispatcher) schedule(h *handlerSub) {
	if !h.scheduled.CompareAndSwap(false, true) {
		return
	}
	d.mu.Lock()
	if d.stopped {
		h.scheduled.Store(false)
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, h)
	d.inFlight++
	d.mu.Unlock()
	d.work.Signal()
}

func (d *dispatcher) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.stopped {
			d.work.Wait()
		}
		if len(d.queue) == 0 { // stopped and drained
			d.mu.Unlock()
			return
		}
		h := d.queue[0]
		d.queue = d.queue[1:]
		d.mu.Unlock()

		for _, m := range h.Poll(dispatchBatch) {
			// Stop invoking the handler once the subscription is closed:
			// after Unsubscribe returns, the handler's resources may be
			// gone. (An invocation already past this check can still
			// complete concurrently with Unsubscribe.)
			if h.isClosed() {
				break
			}
			h.fn(m)
		}
		h.scheduled.Store(false)
		// Messages offered between the Poll and the flag clear lost their
		// wake-up; re-check and reschedule so nothing sits unserved.
		if !h.isClosed() && h.Pending() > 0 {
			d.schedule(h)
		}
		d.mu.Lock()
		d.inFlight--
		if d.inFlight == 0 {
			d.idle.Broadcast()
		}
		d.mu.Unlock()
	}
}

// drain blocks until every scheduled mailbox has been fully drained.
// Messages published after drain is called are not waited for.
func (d *dispatcher) drain() {
	d.mu.Lock()
	for d.inFlight > 0 {
		d.idle.Wait()
	}
	d.mu.Unlock()
}

// stop processes the remaining queue, then terminates the workers.
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.work.Broadcast()
	d.wg.Wait()
}

// dispatcher returns the running dispatcher, or nil.
func (b *Broker) dispatcher() *dispatcher {
	b.dispatchMu.Lock()
	defer b.dispatchMu.Unlock()
	return b.dispatch
}

// StartDispatch starts the push-mode dispatcher with the given worker
// count (GOMAXPROCS when <= 0). It is a no-op if already running.
// Handler mailboxes that accumulated a backlog while no dispatcher was
// running are rescheduled immediately.
func (b *Broker) StartDispatch(workers int) {
	b.dispatchMu.Lock()
	if b.dispatch != nil {
		b.dispatchMu.Unlock()
		return
	}
	d := newDispatcher(workers)
	b.dispatch = d
	b.dispatchMu.Unlock()

	b.subMu.Lock()
	var backlog []*handlerSub
	for _, e := range b.entries {
		if h, ok := e.sub.(*handlerSub); ok && h.Pending() > 0 {
			backlog = append(backlog, h)
		}
	}
	b.subMu.Unlock()
	for _, h := range backlog {
		d.schedule(h)
	}
}

// StopDispatch drains the scheduled work and stops the worker pool.
// Handler subscriptions keep accumulating messages in their mailboxes
// afterwards (and can still be polled); no new pushes happen until
// StartDispatch is called again.
func (b *Broker) StopDispatch() {
	b.dispatchMu.Lock()
	d := b.dispatch
	b.dispatch = nil
	b.dispatchMu.Unlock()
	if d != nil {
		d.stop()
	}
}

// DrainDispatch blocks until every message published before the call
// has been handed to its handlers.
func (b *Broker) DrainDispatch() {
	b.dispatchMu.Lock()
	d := b.dispatch
	b.dispatchMu.Unlock()
	if d != nil {
		d.drain()
	}
}

// SubscribeHandler registers a push-mode subscription: matching messages
// are enqueued into a bounded mailbox (capacity default 1024 when <= 0,
// with the given drop policy) and drained by the dispatcher's worker
// pool into fn. The dispatcher is started with default workers if it is
// not already running. The returned Subscription supports Pending,
// Dropped, Delivered and Unsubscribe; polling it directly would race
// the dispatcher and is not supported.
func (b *Broker) SubscribeHandler(pattern string, capacity int, policy DropPolicy, fn Handler) (*Subscription, error) {
	// Validate before starting the worker pool: a rejected pattern must
	// not leave idle workers behind as a side effect.
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	b.StartDispatch(0)
	sub := newSubscription(pattern, capacity, policy)
	h := &handlerSub{Subscription: sub, fn: fn, b: b}
	id, err := b.register(pattern, h)
	if err != nil {
		return nil, err
	}
	sub.ID = id
	return sub, nil
}
