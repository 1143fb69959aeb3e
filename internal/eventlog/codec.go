package eventlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"
)

// Record wire format.
//
// Every segment file starts with the 8-byte magic "DEWSEG2\n" followed by
// a sequence of frames `[len u32][crc32c u32][body]` (little-endian, CRC
// over the body). The body is the compact binary layout below — no
// reflection on either side of the disk, and the encoder runs in a reused
// buffer so an append does no per-record heap allocation beyond growing
// that buffer.
//
// Body layout (fixed fields little-endian, lengths uvarint):
//
//	offset   u64
//	unixSec  i64     time seconds since epoch
//	nano     u32     time nanoseconds [0, 1e9)
//	zoneSec  i32     zone offset east of UTC in seconds (0 = UTC)
//	topicLen uvarint, topic bytes
//	paylLen  uvarint, payload bytes (raw JSON)
//	hdrCount uvarint, then per header: keyLen uvarint, key, valLen uvarint, val
//
// A segment that does not start with the magic is not read at all: Open
// fails on it (see scanSegment), except for a tail shorter than the magic,
// which is what a crash between creating a segment and its header reaching
// disk leaves behind.
const (
	// segHeaderLen is the segment header (magic) length.
	segHeaderLen = 8

	recordV2Fixed = 8 + 8 + 4 + 4
)

var segMagicV2 = [segHeaderLen]byte{'D', 'E', 'W', 'S', 'E', 'G', '2', '\n'}

// appendRecordV2 appends rec's v2 body encoding to dst and returns the
// extended slice. It allocates nothing beyond growing dst.
func appendRecordV2(dst []byte, rec *Record) []byte {
	var fixed [recordV2Fixed]byte
	binary.LittleEndian.PutUint64(fixed[0:8], rec.Offset)
	binary.LittleEndian.PutUint64(fixed[8:16], uint64(rec.Time.Unix()))
	binary.LittleEndian.PutUint32(fixed[16:20], uint32(rec.Time.Nanosecond()))
	_, zoneSec := rec.Time.Zone()
	binary.LittleEndian.PutUint32(fixed[20:24], uint32(int32(zoneSec)))
	dst = append(dst, fixed[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Topic)))
	dst = append(dst, rec.Topic...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Payload)))
	dst = append(dst, rec.Payload...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Headers)))
	for k, v := range rec.Headers {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// decoder decodes record bodies into Records. It interns topic and
// header-key strings (a log's topic universe is tiny next to its record
// count), shares header maps (see sharedHeaders) and caches time zones,
// so a steady-state v2 decode allocates only the payload copy. A decoder
// is single-goroutine state; each scan owns its own.
type decoder struct {
	strings map[string]string
	zones   map[int32]*time.Location
	// headers maps an encoded header section to its decoded map.
	headers map[string]map[string]string
}

// Records whose header sections are byte-identical — a unit, a rule —
// get one shared map, so Headers of a decoded record are read-only. The
// first sharedHeaders distinct sections of at most sharedHeaderBytes
// bytes are shared per decoder; per-record headers (ids, timestamps)
// beyond them decode into maps of their own.
const (
	sharedHeaders     = 64
	sharedHeaderBytes = 256
)

// intern returns b as a string, reusing a previously seen allocation.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strings[string(b)]; ok { // no-alloc map probe
		return s
	}
	if d.strings == nil {
		d.strings = make(map[string]string, 16)
	}
	s := string(b)
	d.strings[s] = s
	return s
}

// zone returns the Location for a fixed offset east of UTC.
func (d *decoder) zone(sec int32) *time.Location {
	if sec == 0 {
		return time.UTC
	}
	if loc, ok := d.zones[sec]; ok {
		return loc
	}
	if d.zones == nil {
		d.zones = make(map[int32]*time.Location, 2)
	}
	loc := time.FixedZone("", int(sec))
	d.zones[sec] = loc
	return loc
}

// uvarint reads one uvarint length field and bounds it by the bytes that
// could still follow it — a frame already passed its CRC, but the fuzzer
// (and a buggy writer) must hit clean errors, never a panic or a huge
// allocation.
func uvarint(body []byte, at int) (int, int, error) {
	v, n := binary.Uvarint(body[at:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad varint at byte %d", at)
	}
	at += n
	if v > uint64(len(body)-at) {
		return 0, 0, fmt.Errorf("length %d exceeds remaining %d bytes", v, len(body)-at)
	}
	return int(v), at, nil
}

// decodeRecordV2 decodes a v2 body into rec. The topic and header keys
// are interned; the payload is copied into a fresh slice (callers retain
// Records, so the payload must not alias the scan's read buffer).
func (d *decoder) decodeRecordV2(body []byte, rec *Record) error {
	*rec = Record{}
	if len(body) < recordV2Fixed {
		return fmt.Errorf("eventlog: v2 record body of %d bytes is shorter than the fixed fields", len(body))
	}
	rec.Offset = binary.LittleEndian.Uint64(body[0:8])
	sec := int64(binary.LittleEndian.Uint64(body[8:16]))
	nano := binary.LittleEndian.Uint32(body[16:20])
	zoneSec := int32(binary.LittleEndian.Uint32(body[20:24]))
	if nano >= 1e9 {
		return fmt.Errorf("eventlog: v2 record nanoseconds %d out of range", nano)
	}
	rec.Time = time.Unix(sec, int64(nano)).In(d.zone(zoneSec))

	at := recordV2Fixed
	n, at, err := uvarint(body, at)
	if err != nil {
		return fmt.Errorf("eventlog: v2 record topic: %w", err)
	}
	rec.Topic = d.intern(body[at : at+n])
	at += n
	if n, at, err = uvarint(body, at); err != nil {
		return fmt.Errorf("eventlog: v2 record payload: %w", err)
	}
	if n > 0 {
		rec.Payload = append(json.RawMessage(nil), body[at:at+n]...)
		at += n
	}
	// Headers are the body's last field.
	section := body[at:]
	if h, ok := d.headers[string(section)]; ok { // no-alloc map probe
		rec.Headers = h
		return nil
	}
	count, at, err := uvarint(body, at)
	if err != nil {
		return fmt.Errorf("eventlog: v2 record header count: %w", err)
	}
	if count > 0 {
		hint := count
		if hint > 64 {
			hint = 64 // a corrupt count must not pre-size a huge map
		}
		rec.Headers = make(map[string]string, hint)
		for i := 0; i < count; i++ {
			if n, at, err = uvarint(body, at); err != nil {
				return fmt.Errorf("eventlog: v2 record header %d key: %w", i, err)
			}
			k := d.intern(body[at : at+n])
			at += n
			if n, at, err = uvarint(body, at); err != nil {
				return fmt.Errorf("eventlog: v2 record header %d value: %w", i, err)
			}
			rec.Headers[k] = string(body[at : at+n])
			at += n
		}
	}
	if at != len(body) {
		return fmt.Errorf("eventlog: v2 record has %d trailing bytes", len(body)-at)
	}
	if count > 0 && len(d.headers) < sharedHeaders && len(section) <= sharedHeaderBytes {
		if d.headers == nil {
			d.headers = make(map[string]map[string]string, 8)
		}
		d.headers[string(section)] = rec.Headers
	}
	return nil
}
