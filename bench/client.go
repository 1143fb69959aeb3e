package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client that holds at most one connection:
// the generator is one writer and one reader, each on its own
// connection, never more than the box has cores.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// requestTimeout bounds one request, so a hung server fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// post sends one pre-rendered publish body and reports whether the
// server answered 200. Cancelling ctx does not abort a request already
// under way: a writer told to stop finishes its last request, so
// stopping never manufactures a failed operation.
func post(ctx context.Context, client *http.Client, u string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d", u, resp.StatusCode)
	}
	return nil
}

// get fetches a URL and returns the body of a 200 response.
func get(ctx context.Context, client *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// sseStream is one open SSE subscription read frame by frame.
type sseStream struct {
	resp *http.Response
	br   *bufio.Reader
	data []byte
}

// openSSE subscribes to pattern; from > 0 resumes at that offset
// (inclusive), which a durable server answers from its log.
func openSSE(ctx context.Context, client *http.Client, base, pattern string, from uint64) (*sseStream, error) {
	u := base + "/subscribe?pattern=" + url.QueryEscape(pattern) + "&buffer=4096"
	if from > 0 {
		u += "&from=" + strconv.FormatUint(from, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: %d", pattern, resp.StatusCode)
	}
	return &sseStream{resp: resp, br: bufio.NewReaderSize(resp.Body, 256<<10)}, nil
}

func (s *sseStream) close() { s.resp.Body.Close() }

// next reads one event: its type, its id: offset (0 when absent) and
// its data line, which is valid only until the following call.
// Keep-alive comments are skipped.
func (s *sseStream) next() (event string, offset uint64, data []byte, err error) {
	for {
		line, err := s.br.ReadSlice('\n')
		if err != nil {
			return "", 0, nil, err
		}
		line = line[:len(line)-1]
		switch {
		case len(line) == 0:
			if event != "" {
				return event, offset, data, nil
			}
		case bytes.HasPrefix(line, []byte("id: ")):
			offset, err = strconv.ParseUint(string(line[4:]), 10, 64)
			if err != nil {
				return "", 0, nil, fmt.Errorf("bad SSE id %q", line)
			}
		case bytes.Equal(line, []byte("event: message")):
			event = "message"
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			// ReadSlice's buffer is overwritten by the next read, so
			// the data line moves to the stream's own scratch.
			s.data = append(s.data[:0], line[6:]...)
			data = s.data
		}
	}
}

var seqKey = []byte(`"seq":`)

// seqOf extracts the generated seq from an envelope's payload.
func seqOf(data []byte) (int, bool) {
	i := bytes.Index(data, seqKey)
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range data[i+len(seqKey):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

// delivery is the reader side of a serving run.
type delivery struct {
	// recvNS[seq] is the arrival time in ns since the run epoch, 0 when
	// never delivered. Written only by the reader goroutine, read after
	// it is joined.
	recvNS []int64
	// received counts message events; the main goroutine polls it to
	// learn when everything acked has arrived.
	received atomic.Int64
	// duplicates counts seqs seen twice; gaps counts offsets that did
	// not follow their predecessor by exactly one.
	duplicates, gaps, goodbyes int
	// err is why the stream ended; the reader runs until it does.
	err error
}

// readDeliveries consumes the load/# stream until it ends (the caller
// closes it once everything acked has arrived), stamping each seq's
// arrival and auditing offset order.
func readDeliveries(s *sseStream, epoch time.Time, d *delivery) {
	var last uint64
	for {
		event, offset, data, err := s.next()
		if err != nil {
			d.err = err
			return
		}
		switch event {
		case "goodbye":
			d.goodbyes++
		case "message":
			now := time.Since(epoch).Nanoseconds()
			seq, ok := seqOf(data)
			if !ok || seq >= len(d.recvNS) {
				d.err = fmt.Errorf("delivered event without a generated seq: %.120s", data)
				return
			}
			if d.recvNS[seq] != 0 {
				d.duplicates++
			}
			d.recvNS[seq] = now
			if last != 0 && offset != last+1 {
				d.gaps++
			}
			last = offset
			d.received.Add(1)
		}
	}
}

// writerResult is the writer side of a serving run.
type writerResult struct {
	// ackMS holds one publish→200 latency per acked request, measured
	// from the request's due time.
	ackMS []float64
	// lateMS is how late each request left relative to its due time
	// (open loop only).
	lateMS []float64
	// attempted and failed count requests; ackedEvents counts the events
	// of the requests that got a 200.
	attempted, failed, ackedEvents int
	elapsed                        time.Duration
	firstErr                       error
}

// runWriter posts bodies[i] at start+schedule[i] — open loop; with a nil
// schedule, as fast as acks allow — until the bodies run out, the length
// has passed or ctx is cancelled. Before each request it stores the
// request's due time into dueNS (when given) for every seq the body
// carries, so delivery latency is looked up client-side and nothing is
// rendered inside the timed loop.
func runWriter(ctx context.Context, client *http.Client, u string, bodies [][]byte, batch int, schedule []time.Duration, length time.Duration, epoch time.Time, dueNS []atomic.Int64, w *writerResult) {
	start := time.Now()
	for i, body := range bodies {
		due := time.Now()
		if schedule != nil {
			due = start.Add(schedule[i])
		}
		if due.Sub(start) >= length || ctx.Err() != nil {
			break
		}
		if schedule != nil {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			w.lateMS = append(w.lateMS, ms(time.Since(due)))
		}
		if dueNS != nil {
			dueOffset := due.Sub(epoch).Nanoseconds()
			for s := i * batch; s < (i+1)*batch; s++ {
				dueNS[s].Store(dueOffset)
			}
		}
		w.attempted++
		if err := post(ctx, client, u, body); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		w.ackMS = append(w.ackMS, ms(time.Since(due)))
		w.ackedEvents += batch
	}
	w.elapsed = time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vals (sorted in place) by the
// nearest-rank rule; 0 for an empty sample. Exact, unlike the
// log-bucketed loadgen.Histogram whose bucket width (about 6%) is the
// same order as the regression bounds gated here.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(q * float64(len(vals)))
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

// tail returns the highest percentile of vals that still has at least
// ten samples beyond it, as (percentile, value).
func tail(vals []float64) (float64, float64) {
	if len(vals) <= 10 {
		return 0, 0
	}
	sort.Float64s(vals)
	i := len(vals) - 11
	return 100 * float64(i+1) / float64(len(vals)), vals[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
