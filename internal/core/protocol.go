package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/wsn"
)

// ReadingSource abstracts the cloud storage the interface protocol layer
// downloads from (§4.2.3). wsn.CloudStore satisfies it; a production
// deployment would put an HTTP client here.
type ReadingSource interface {
	// Download returns up to limit readings from cursor and the next
	// cursor (limit <= 0 means all).
	Download(cursor int, limit int) ([]wsn.RawReading, int, error)
}

var _ ReadingSource = (*wsn.CloudStore)(nil)

// defaultFetchParallelism bounds how many sources FetchAll downloads
// from at once when no explicit limit is configured.
const defaultFetchParallelism = 8

// ProtocolLayer is the interface protocol layer: it tracks a download
// cursor per source and hands batches of semi-processed readings upward.
// FetchAll downloads from every source concurrently (bounded by
// SetParallelism) while keeping the merged batch in deterministic
// sorted-source order.
type ProtocolLayer struct {
	mu      sync.Mutex
	sources map[string]ReadingSource
	cursors map[string]int
	// fetchMu serializes Fetch per source: reading the cursor,
	// downloading and advancing the cursor are one step, or two
	// overlapping ingest cycles download the same readings twice.
	fetchMu map[string]*sync.Mutex
	// fetched counts readings pulled per source.
	fetched map[string]int
	// parallelism bounds concurrent downloads in FetchAll.
	parallelism int
}

// NewProtocolLayer returns an empty layer.
func NewProtocolLayer() *ProtocolLayer {
	return &ProtocolLayer{
		sources:     make(map[string]ReadingSource),
		cursors:     make(map[string]int),
		fetchMu:     make(map[string]*sync.Mutex),
		fetched:     make(map[string]int),
		parallelism: defaultFetchParallelism,
	}
}

// SetParallelism bounds the number of sources FetchAll downloads from
// concurrently. n <= 1 makes FetchAll strictly serial.
func (p *ProtocolLayer) SetParallelism(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	p.parallelism = n
}

// AddSource registers a named reading source.
func (p *ProtocolLayer) AddSource(name string, src ReadingSource) error {
	if name == "" || src == nil {
		return fmt.Errorf("core: source needs a name and an implementation")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.sources[name]; exists {
		return fmt.Errorf("core: source %q already registered", name)
	}
	p.sources[name] = src
	p.fetchMu[name] = new(sync.Mutex)
	return nil
}

// Fetch downloads up to limit new readings from one source, advancing its
// cursor.
func (p *ProtocolLayer) Fetch(name string, limit int) ([]wsn.RawReading, error) {
	p.mu.Lock()
	src, ok := p.sources[name]
	fetchMu := p.fetchMu[name]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", name)
	}
	fetchMu.Lock()
	defer fetchMu.Unlock()
	p.mu.Lock()
	cursor := p.cursors[name]
	p.mu.Unlock()
	batch, next, err := src.Download(cursor, limit)
	if err != nil {
		return nil, fmt.Errorf("core: download from %q: %w", name, err)
	}
	p.mu.Lock()
	p.cursors[name] = next
	p.fetched[name] += len(batch)
	p.mu.Unlock()
	return batch, nil
}

// FetchAll downloads up to limit readings from every source. Sources
// are fetched concurrently with bounded parallelism; the merged batch
// is assembled in sorted source-name order, so the result is
// byte-identical to a serial fetch. On failure the error from the first
// failing source in sorted order is returned (also deterministic),
// together with every successfully fetched batch: those sources'
// cursors have already advanced, so discarding their readings would
// lose them permanently. Callers should process the partial batch even
// when err != nil.
func (p *ProtocolLayer) FetchAll(limit int) ([]wsn.RawReading, error) {
	p.mu.Lock()
	names := make([]string, 0, len(p.sources))
	for n := range p.sources {
		names = append(names, n)
	}
	workers := p.parallelism
	p.mu.Unlock()
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}

	batches := make([][]wsn.RawReading, len(names))
	errs := make([]error, len(names))
	runBounded(len(names), workers, func(i int) {
		batches[i], errs[i] = p.Fetch(names[i], limit)
	})

	var out []wsn.RawReading
	var firstErr error
	for i := range names {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		out = append(out, batches[i]...)
	}
	return out, firstErr
}

// Fetched returns the total readings pulled from a source.
func (p *ProtocolLayer) Fetched(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetched[name]
}
