package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// seedRecords holds one record of every Kind.
func seedRecords() []Record {
	row := tuple.Tuple{value.Int(-3), value.Float(2.5), value.String_("k"), value.Bool(true), value.Null}
	schema := tuple.Schema{Cols: []tuple.Column{
		{Name: "id", Kind: value.KindInt}, {Name: "v", Kind: value.KindString},
	}}
	return []Record{
		{Kind: KindInsert, Name: "s", Tuple: row, Texp: 42},
		{Kind: KindDelete, Name: "s", Key: row.Key()},
		{Kind: KindAdvance, Texp: 99},
		{Kind: KindCreateTable, Name: "s", Schema: schema},
		{Kind: KindDropTable, Name: "s"},
		{Kind: KindCreateView, Name: "v", Def: "CREATE VIEW v AS SELECT * FROM s"},
		{Kind: KindDropView, Name: "v"},
		{Kind: KindSweep, Texp: 7},
		{Kind: KindCreateIndex, Name: "s_id", Def: "CREATE INDEX s_id ON s (id)"},
		{Kind: KindDropIndex, Name: "s_id"},
		{Kind: KindSnapHeader, Texp: 12, Aux: 8},
		{Kind: KindSnapTable, Name: "s", Schema: schema},
		{Kind: KindSnapRow, Tuple: row, Texp: xtime.Infinity},
		{Kind: KindSnapView, Name: "v", Def: "CREATE VIEW v AS SELECT * FROM s"},
		{Kind: KindSnapFooter, Count: 4},
		{Kind: KindSnapIndex, Name: "s_id", Def: "CREATE INDEX s_id ON s (id)"},
	}
}

// FuzzReadRecord feeds arbitrary bytes to the record decoder, both as
// they are and re-framed with a valid length and CRC so that mutations
// reach the payload decoder. It must never panic, must report every
// failure as ErrCorrupt without moving the offset, and every frame it
// accepts must re-encode to a frame that decodes to the same record.
func FuzzReadRecord(f *testing.F) {
	for _, rec := range seedRecords() {
		f.Add(appendRecord(nil, &rec))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkFrames(t, buf)
		if len(buf) > frameHeader {
			framed := append([]byte(nil), buf...)
			payload := framed[frameHeader:]
			binary.BigEndian.PutUint32(framed, uint32(len(payload)))
			binary.BigEndian.PutUint32(framed[4:], crc32.ChecksumIEEE(payload))
			checkFrames(t, framed)
		}
	})
}

// checkFrames reads buf frame by frame up to the first defect.
func checkFrames(t *testing.T, buf []byte) {
	for off := 0; off < len(buf); {
		rec, next, err := readRecord(buf, off)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || next != off {
				t.Fatalf("failed read at %d returned (%d, %v), want (%d, ErrCorrupt)", off, next, err, off)
			}
			return
		}
		if next <= off || next > len(buf) {
			t.Fatalf("read at %d returned next offset %d of %d", off, next, len(buf))
		}
		frame := appendRecord(nil, &rec)
		again, end, err := readRecord(frame, 0)
		if err != nil || end != len(frame) {
			t.Fatalf("re-encoded %s record: read returned (%d, %v) for %d bytes", rec.Kind, end, err, len(frame))
		}
		if !sameRecord(rec, again) {
			t.Fatalf("%s record changed on re-encoding\n got %+v\nwant %+v", rec.Kind, again, rec)
		}
		off = next
	}
}

// sameRecord is field equality with floats compared bit for bit, so a
// NaN survives the round trip as itself.
func sameRecord(a, b Record) bool {
	at, bt := a.Tuple, b.Tuple
	a.Tuple, b.Tuple = nil, nil
	if !reflect.DeepEqual(a, b) || len(at) != len(bt) {
		return false
	}
	for i := range at {
		x, y := at[i], bt[i]
		if x.Kind() != y.Kind() {
			return false
		}
		switch x.Kind() {
		case value.KindFloat:
			if math.Float64bits(x.AsFloat()) != math.Float64bits(y.AsFloat()) {
				return false
			}
		case value.KindInt:
			if x.AsInt() != y.AsInt() {
				return false
			}
		case value.KindString:
			if x.AsString() != y.AsString() {
				return false
			}
		case value.KindBool:
			if x.AsBool() != y.AsBool() {
				return false
			}
		}
	}
	return true
}
