// Package wal implements the durable storage layer of the engine: a
// write-ahead log of length-prefixed, CRC-checked records for every
// state-changing operation (inserts, deletes, clock advances, DDL), plus
// periodic snapshots that bound replay time.
//
// The design follows the paper's premise that the expiration time texp is
// first-class durable metadata: the log and snapshots persist per-tuple
// texp verbatim, and nothing else about the expiration machinery — the
// per-table texp heaps are *rebuilt* from the stored texp values at
// recovery (see engine.OpenDurability), the durable analogue of the
// texp-ordered expiration index of "Efficient Management of Short-Lived
// Data" (arXiv cs/0505038).
//
// On-disk layout of a log directory:
//
//	wal-00000001.log    log segment 1 (records appended since boot/rotation)
//	wal-00000002.log    log segment 2 …
//	snap-00000002.snap  snapshot of the state *before* segment 2
//
// A snapshot with generation G captures everything recorded in segments
// < G; recovery loads the highest complete snapshot and replays segments
// ≥ G in order. Both files share one framing:
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// A torn tail (short header, length past EOF, CRC mismatch, or a payload
// that does not decode) marks the end of the usable log: recovery stops
// at the last valid record and truncates the segment there, exactly the
// stop-at-last-valid-record contract of ARIES-style logs.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Kind classifies one log or snapshot record.
type Kind uint8

// Log record kinds. The numeric values are the on-disk format — append
// new kinds at the end, never renumber.
const (
	// KindInsert: a tuple was stored in a table with an absolute texp.
	// (TTL inserts are logged with the resolved absolute texp, so replay
	// is independent of the clock reading that produced it.)
	KindInsert Kind = 1
	// KindDelete: the tuple stored under Key was explicitly removed.
	// Expiration removals are never logged — they re-derive from texp.
	KindDelete Kind = 2
	// KindAdvance: the logical clock moved to Texp. Replay removes the
	// tuples the original advance expired (without re-firing their
	// triggers — they fired before the crash).
	KindAdvance Kind = 3
	// KindCreateTable: DDL — a base relation was created.
	KindCreateTable Kind = 4
	// KindDropTable: DDL — a base relation was dropped.
	KindDropTable Kind = 5
	// KindCreateView: DDL — a view was created; Def carries the full SQL
	// statement text, replayed through the SQL layer at recovery.
	KindCreateView Kind = 6
	// KindDropView: DDL — a view was dropped.
	KindDropView Kind = 7
	// KindSweep: a manual Sweep physically removed tuples expired at or
	// before Texp (without moving the lazy sweep grid). Replay removes
	// the same tuples without re-firing their triggers.
	KindSweep Kind = 8
	// KindCreateIndex: DDL — a secondary index was created; Def carries
	// the full CREATE INDEX statement text, replayed through the SQL
	// layer at recovery (same pattern as KindCreateView). Row maintenance
	// is never logged: replayed inserts/deletes rebuild index contents
	// through the relation's maintenance hooks.
	KindCreateIndex Kind = 9
	// KindDropIndex: DDL — a secondary index was dropped.
	KindDropIndex Kind = 10

	// Snapshot-only kinds.

	// KindSnapHeader opens a snapshot: Texp is the clock, Aux the lazy
	// sweeper's lastSweep tick.
	KindSnapHeader Kind = 32
	// KindSnapTable declares a table (Name, Schema); subsequent
	// KindSnapRow records belong to it.
	KindSnapTable Kind = 33
	// KindSnapRow is one stored row of the current snapshot table: Tuple
	// plus its texp (expired-but-unswept rows included, so lazy-mode
	// trigger obligations survive recovery).
	KindSnapRow Kind = 34
	// KindSnapView is one view definition (Name, Def).
	KindSnapView Kind = 35
	// KindSnapFooter closes a snapshot; Count carries the number of
	// records between header and footer. A snapshot without a matching
	// footer (crash mid-write) is ignored by recovery.
	KindSnapFooter Kind = 36
	// KindSnapIndex is one index definition (Name, Def), replayed like
	// KindSnapView after the tables are restored so the backfill sees
	// every row.
	KindSnapIndex Kind = 37
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindAdvance:
		return "advance"
	case KindCreateTable:
		return "create-table"
	case KindDropTable:
		return "drop-table"
	case KindCreateView:
		return "create-view"
	case KindDropView:
		return "drop-view"
	case KindSweep:
		return "sweep"
	case KindCreateIndex:
		return "create-index"
	case KindDropIndex:
		return "drop-index"
	case KindSnapHeader:
		return "snap-header"
	case KindSnapTable:
		return "snap-table"
	case KindSnapRow:
		return "snap-row"
	case KindSnapView:
		return "snap-view"
	case KindSnapFooter:
		return "snap-footer"
	case KindSnapIndex:
		return "snap-index"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is the decoded form of one log or snapshot record. Which fields
// are meaningful depends on Kind (see the kind constants).
type Record struct {
	Kind   Kind
	Name   string       // table or view name
	Key    string       // set key of a deleted tuple (tuple.Tuple.Key)
	Texp   xtime.Time   // insert texp / advance target / snapshot clock
	Aux    xtime.Time   // snapshot lastSweep
	Count  uint64       // snapshot footer record count
	Tuple  tuple.Tuple  // inserted tuple / snapshot row
	Schema tuple.Schema // created table's schema
	Def    string       // view definition SQL text
}

// Framing and decode limits.
const (
	frameHeader = 8 // 4B length + 4B CRC
	// maxPayload bounds one record so a corrupt length field can never
	// make recovery allocate unbounded memory.
	maxPayload = 64 << 20
)

// ErrCorrupt marks a record that failed its CRC or did not decode; the
// reader treats it as the end of the log.
var ErrCorrupt = errors.New("wal: corrupt record")

// appendRecord appends the framed encoding of rec to dst. Everything is
// copied into dst immediately: rec may alias caller-owned memory (the
// engine hands its in-flight tuple straight in), and after appendRecord
// returns, no reference to it survives — the aliasing contract the
// pooled-key-buffer paths of the engine rely on.
func appendRecord(dst []byte, rec *Record) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	body := len(dst)
	dst = append(dst, byte(rec.Kind))
	switch rec.Kind {
	case KindInsert:
		dst = appendString(dst, rec.Name)
		dst = appendTuple(dst, rec.Tuple)
		dst = appendTime(dst, rec.Texp)
	case KindDelete:
		dst = appendString(dst, rec.Name)
		dst = appendString(dst, rec.Key)
	case KindAdvance, KindSweep:
		dst = appendTime(dst, rec.Texp)
	case KindCreateTable, KindSnapTable:
		dst = appendString(dst, rec.Name)
		dst = appendSchema(dst, rec.Schema)
	case KindDropTable, KindDropView, KindDropIndex:
		dst = appendString(dst, rec.Name)
	case KindCreateView, KindSnapView, KindCreateIndex, KindSnapIndex:
		dst = appendString(dst, rec.Name)
		dst = appendString(dst, rec.Def)
	case KindSnapHeader:
		dst = appendTime(dst, rec.Texp)
		dst = appendTime(dst, rec.Aux)
	case KindSnapRow:
		dst = appendTuple(dst, rec.Tuple)
		dst = appendTime(dst, rec.Texp)
	case KindSnapFooter:
		dst = binary.AppendUvarint(dst, rec.Count)
	}
	payload := dst[body:]
	binary.BigEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// readRecord decodes the record framed at buf[off:]. It returns the
// offset just past the frame. Any defect — a truncated header, a length
// running past the buffer, a CRC mismatch, or a payload that does not
// decode — returns ErrCorrupt (wrapped with the reason): the caller must
// treat off as the end of the valid log.
func readRecord(buf []byte, off int) (Record, int, error) {
	if len(buf)-off < frameHeader {
		return Record{}, off, fmt.Errorf("%w: torn frame header at offset %d", ErrCorrupt, off)
	}
	n := int(binary.BigEndian.Uint32(buf[off:]))
	sum := binary.BigEndian.Uint32(buf[off+4:])
	if n == 0 || n > maxPayload {
		return Record{}, off, fmt.Errorf("%w: implausible payload length %d at offset %d", ErrCorrupt, n, off)
	}
	if len(buf)-off-frameHeader < n {
		return Record{}, off, fmt.Errorf("%w: torn payload at offset %d (want %d bytes, have %d)",
			ErrCorrupt, off, n, len(buf)-off-frameHeader)
	}
	payload := buf[off+frameHeader : off+frameHeader+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, off, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
	}
	return rec, off + frameHeader + n, nil
}

func decodePayload(p []byte) (Record, error) {
	d := decoder{buf: p}
	rec := Record{Kind: Kind(d.u8())}
	switch rec.Kind {
	case KindInsert:
		rec.Name = d.str()
		rec.Tuple = d.tuple()
		rec.Texp = d.time()
	case KindDelete:
		rec.Name = d.str()
		rec.Key = d.str()
	case KindAdvance, KindSweep:
		rec.Texp = d.time()
	case KindCreateTable, KindSnapTable:
		rec.Name = d.str()
		rec.Schema = d.schema()
	case KindDropTable, KindDropView, KindDropIndex:
		rec.Name = d.str()
	case KindCreateView, KindSnapView, KindCreateIndex, KindSnapIndex:
		rec.Name = d.str()
		rec.Def = d.str()
	case KindSnapHeader:
		rec.Texp = d.time()
		rec.Aux = d.time()
	case KindSnapRow:
		rec.Tuple = d.tuple()
		rec.Texp = d.time()
	case KindSnapFooter:
		rec.Count = d.uvarint()
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.buf) != d.off {
		return Record{}, fmt.Errorf("%d trailing bytes after %s record", len(d.buf)-d.off, rec.Kind)
	}
	return rec, nil
}

// Scalar encoders. Times are fixed 8-byte big-endian (Infinity is
// MaxInt64 and would cost 10 bytes as a varint); strings and counts are
// uvarint-length-prefixed.

func appendTime(dst []byte, t xtime.Time) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(t))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendTuple(dst []byte, t tuple.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendValue(dst []byte, v value.Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case value.KindNull:
	case value.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.AsInt()))
	case value.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case value.KindString:
		dst = appendString(dst, v.AsString())
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

func appendSchema(dst []byte, s tuple.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// decoder is a cursor over one payload with a sticky error, so record
// decoding reads field after field without per-field error plumbing.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at payload offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf)-d.off < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) time() xtime.Time { return xtime.Time(d.u64()) }

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) tuple() tuple.Tuple {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) { // every value costs ≥1 byte
		d.fail("tuple arity")
		return nil
	}
	t := make(tuple.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t = append(t, d.value())
	}
	return t
}

func (d *decoder) value() value.Value {
	switch value.Kind(d.u8()) {
	case value.KindNull:
		return value.Null
	case value.KindInt:
		return value.Int(int64(d.u64()))
	case value.KindFloat:
		return value.Float(math.Float64frombits(d.u64()))
	case value.KindString:
		return value.String_(d.str())
	case value.KindBool:
		return value.Bool(d.u8() != 0)
	default:
		d.fail("value kind")
		return value.Null
	}
}

func (d *decoder) schema() tuple.Schema {
	n := d.uvarint()
	if d.err != nil {
		return tuple.Schema{}
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("schema width")
		return tuple.Schema{}
	}
	cols := make([]tuple.Column, 0, n)
	for i := uint64(0); i < n; i++ {
		name := d.str()
		kind := value.Kind(d.u8())
		cols = append(cols, tuple.Column{Name: name, Kind: kind})
	}
	return tuple.Schema{Cols: cols}
}
