package graphlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/rdf"
)

// Snapshot file layout. A snapshot is a full serialization of a graph
// snapshot — the dictionary decode table plus the three fused sorted
// index runs — framed so that any corruption (torn write, bit rot,
// truncation) is detected on load:
//
//	8B  magic "DEWGSNP1"
//	section HEADER: walOffset u64, nTriples u64, bnodeSeq u64, nTerms u64
//	section DICT:   nTerms × term (see codec.go)
//	section RUN ×3: nTriples × (A u32, B u32, C u32)   SPO, POS, OSP order
//	8B  end magic "DEWGSNPE"
//
// Every section is [len u64][payload][crc32c u32] with the CRC over the
// payload, so large runs stream through a fixed buffer on both write and
// read. walOffset is the eventlog offset of the first WAL record NOT
// reflected in the snapshot; replay resumes there.
const (
	snapMagic    = "DEWGSNP1"
	snapEndMagic = "DEWGSNPE"
	snapHdrLen   = 32
	key3Bytes    = 12
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotInfo describes a snapshot file's header.
type SnapshotInfo struct {
	// WALOffset is the offset of the first WAL record not reflected in
	// the snapshot (replay resumes here).
	WALOffset uint64
	// Triples and Terms are the run length and dictionary size.
	Triples int
	Terms   int
	// BlankNodeSeq is the persisted blank-node allocation cursor.
	BlankNodeSeq int
}

// WriteSnapshotFile serializes snap to path atomically: the bytes go to
// a temp file in the same directory which is fsynced, renamed over path,
// and the directory fsynced. A crash mid-write leaves either the old
// file or the new one, never a partial snapshot under the final name.
func WriteSnapshotFile(path string, snap *rdf.Snapshot, walOffset uint64, bnodeSeq int) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			// Best-effort: f is non-nil only on error paths, where err
			// already reports why the snapshot write failed.
			_ = f.Close()
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()

	w := bufio.NewWriterSize(f, 1<<20)
	if err = writeSnapshot(w, snap, walOffset, bnodeSeq); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	err = f.Close()
	f = nil
	if err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeSnapshot streams the snapshot encoding to w (everything but the
// file handling of WriteSnapshotFile — also the fast path for in-memory
// round-trip tests).
func writeSnapshot(w *bufio.Writer, snap *rdf.Snapshot, walOffset uint64, bnodeSeq int) error {
	terms := snap.Terms()
	var runs [rdf.NumIndexes][]rdf.Key3
	for ix := range runs {
		runs[ix] = snap.Run(ix)
	}
	if _, err := w.WriteString(snapMagic); err != nil {
		return err
	}
	hdr := make([]byte, 0, snapHdrLen)
	hdr = binary.LittleEndian.AppendUint64(hdr, walOffset)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(runs[0])))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(bnodeSeq))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(terms)))
	if err := writeSection(w, hdr); err != nil {
		return err
	}
	if err := writeDictSection(w, terms); err != nil {
		return err
	}
	for ix := 0; ix < rdf.NumIndexes; ix++ {
		if err := writeRunSection(w, runs[ix]); err != nil {
			return err
		}
	}
	_, err := w.WriteString(snapEndMagic)
	return err
}

// ReadSnapshotFile loads a snapshot file into a fresh graph. Corruption
// anywhere — framing, CRCs, or the graph-level invariants checked by
// rdf.NewGraphFromRuns — yields an error, never a panic or a bad graph.
func ReadSnapshotFile(path string) (*rdf.Graph, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close() //dewsvet:wralerr-ok read-only handle; a close error cannot lose data
	st, err := f.Stat()
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return readSnapshot(bufio.NewReaderSize(f, 1<<20), st.Size(), path)
}

// readSnapshot decodes a snapshot from r, whose total length must be
// size (the bound for every allocation). path only labels errors.
func readSnapshot(r *bufio.Reader, size int64, path string) (*rdf.Graph, SnapshotInfo, error) {
	var info SnapshotInfo
	remain := size

	var magic [8]byte
	if err := readFull(r, &remain, magic[:]); err != nil {
		return nil, info, fmt.Errorf("graphlog: snapshot %s: %w", path, err)
	}
	if string(magic[:]) != snapMagic {
		return nil, info, fmt.Errorf("graphlog: %s is not a graph snapshot (bad magic)", path)
	}

	hdr, err := readSection(r, &remain, snapHdrLen)
	if err != nil {
		return nil, info, fmt.Errorf("graphlog: snapshot %s header: %w", path, err)
	}
	info.WALOffset = binary.LittleEndian.Uint64(hdr[0:])
	nTriples := binary.LittleEndian.Uint64(hdr[8:])
	bseq := binary.LittleEndian.Uint64(hdr[16:])
	nTerms := binary.LittleEndian.Uint64(hdr[24:])
	// Each triple costs 3×key3Bytes across the runs, each term at least 2
	// bytes in the dict: claims beyond the file's actual size are corrupt,
	// and rejecting them here bounds every allocation below by file size.
	if nTriples > uint64(remain)/(rdf.NumIndexes*key3Bytes) || nTerms > uint64(remain)/2 || bseq > math.MaxInt32 {
		return nil, info, fmt.Errorf("graphlog: snapshot %s header claims %d triples / %d terms beyond file size", path, nTriples, nTerms)
	}
	info.Triples = int(nTriples)
	info.Terms = int(nTerms)
	info.BlankNodeSeq = int(bseq)

	dictBuf, err := readSection(r, &remain, -1)
	if err != nil {
		return nil, info, fmt.Errorf("graphlog: snapshot %s dict: %w", path, err)
	}
	terms := make([]rdf.Term, 0, nTerms)
	for at := 0; at < len(dictBuf); {
		var t rdf.Term
		if t, at, err = decodeTerm(dictBuf, at); err != nil {
			return nil, info, fmt.Errorf("graphlog: snapshot %s dict term %d: %w", path, len(terms), err)
		}
		if uint64(len(terms)) == nTerms {
			return nil, info, fmt.Errorf("graphlog: snapshot %s dict has more than the declared %d terms", path, nTerms)
		}
		terms = append(terms, t)
	}
	if uint64(len(terms)) != nTerms {
		return nil, info, fmt.Errorf("graphlog: snapshot %s dict has %d terms, header declares %d", path, len(terms), nTerms)
	}

	var runs [rdf.NumIndexes][]rdf.Key3
	for ix := 0; ix < rdf.NumIndexes; ix++ {
		if runs[ix], err = readRunSection(r, &remain, int(nTriples)); err != nil {
			return nil, info, fmt.Errorf("graphlog: snapshot %s run %d: %w", path, ix, err)
		}
	}

	if err := readFull(r, &remain, magic[:]); err != nil {
		return nil, info, fmt.Errorf("graphlog: snapshot %s trailer: %w", path, err)
	}
	if string(magic[:]) != snapEndMagic {
		return nil, info, fmt.Errorf("graphlog: snapshot %s has a bad end marker", path)
	}
	if remain != 0 {
		return nil, info, fmt.Errorf("graphlog: snapshot %s has %d trailing bytes", path, remain)
	}

	g, err := rdf.NewGraphFromRuns(terms, runs, info.BlankNodeSeq)
	if err != nil {
		return nil, info, fmt.Errorf("graphlog: snapshot %s: %w", path, err)
	}
	return g, info, nil
}

// writeSection writes one fully-buffered section.
func writeSection(w *bufio.Writer, payload []byte) error {
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], uint64(len(payload)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(crc[:])
	return err
}

// writeDictSection encodes the decode table. The encoded size must be
// known before the payload, so terms are encoded into one buffer; at 10M
// triples the dictionary is tens of MB, a transient small next to the
// graph itself.
func writeDictSection(w *bufio.Writer, terms []rdf.Term) error {
	var size int
	for _, t := range terms {
		size += len(t.Key()) + 8
	}
	buf := make([]byte, 0, size)
	for _, t := range terms {
		buf = appendTerm(buf, t)
	}
	return writeSection(w, buf)
}

// writeRunSection streams one index run through a fixed chunk buffer,
// computing the CRC incrementally — no 12n-byte staging allocation.
func writeRunSection(w *bufio.Writer, run []rdf.Key3) error {
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], uint64(len(run))*key3Bytes)
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	var sum uint32
	buf := make([]byte, 0, 4096*key3Bytes)
	for i, k := range run {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k.A))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k.B))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k.C))
		if len(buf) == cap(buf) || i == len(run)-1 {
			sum = crc32.Update(sum, castagnoli, buf)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	_, err := w.Write(crc[:])
	return err
}

// readSection reads one fully-buffered section. wantLen < 0 accepts any
// length that fits in the remaining file bytes; otherwise the declared
// length must match exactly.
func readSection(r *bufio.Reader, remain *int64, wantLen int64) ([]byte, error) {
	var pre [8]byte
	if err := readFull(r, remain, pre[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(pre[:])
	if wantLen >= 0 && n != uint64(wantLen) {
		return nil, fmt.Errorf("section length %d, want %d", n, wantLen)
	}
	if *remain < 4 || n > uint64(*remain-4) {
		return nil, fmt.Errorf("section length %d exceeds remaining %d file bytes", n, *remain)
	}
	payload := make([]byte, n)
	if err := readFull(r, remain, payload); err != nil {
		return nil, err
	}
	return payload, verifyCRC(r, remain, crc32.Checksum(payload, castagnoli))
}

// readRunSection streams one index run section into a []Key3, CRCing
// through the same fixed-size chunks the writer used.
func readRunSection(r *bufio.Reader, remain *int64, n int) ([]rdf.Key3, error) {
	var pre [8]byte
	if err := readFull(r, remain, pre[:]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(pre[:]); got != uint64(n)*key3Bytes {
		return nil, fmt.Errorf("run section length %d, want %d for %d triples", got, n*key3Bytes, n)
	}
	if uint64(n)*key3Bytes > uint64(max(*remain-4, 0)) {
		return nil, fmt.Errorf("run section exceeds remaining %d file bytes", *remain)
	}
	run := make([]rdf.Key3, 0, n)
	var sum uint32
	buf := make([]byte, 4096*key3Bytes)
	for left := n; left > 0; {
		chunk := len(buf) / key3Bytes
		if chunk > left {
			chunk = left
		}
		b := buf[:chunk*key3Bytes]
		if err := readFull(r, remain, b); err != nil {
			return nil, err
		}
		sum = crc32.Update(sum, castagnoli, b)
		for at := 0; at < len(b); at += key3Bytes {
			run = append(run, rdf.Key3{
				A: rdf.ID(binary.LittleEndian.Uint32(b[at:])),
				B: rdf.ID(binary.LittleEndian.Uint32(b[at+4:])),
				C: rdf.ID(binary.LittleEndian.Uint32(b[at+8:])),
			})
		}
		left -= chunk
	}
	return run, verifyCRC(r, remain, sum)
}

// verifyCRC reads the section trailer and compares it to the computed sum.
func verifyCRC(r *bufio.Reader, remain *int64, sum uint32) error {
	var crc [4]byte
	if err := readFull(r, remain, crc[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(crc[:]); got != sum {
		return fmt.Errorf("CRC mismatch: file %08x, computed %08x", got, sum)
	}
	return nil
}

// readFull fills buf from r, decrementing the remaining-bytes budget and
// normalizing EOF-family errors.
func readFull(r *bufio.Reader, remain *int64, buf []byte) error {
	if int64(len(buf)) > *remain {
		return fmt.Errorf("truncated: need %d bytes, %d remain", len(buf), *remain)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("truncated read: %w", err)
	}
	*remain -= int64(len(buf))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //dewsvet:wralerr-ok the Sync result is what matters; the directory handle is read-only
	return d.Sync()
}
