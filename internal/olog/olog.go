// Package olog defines the persisted request-log format of the serving
// path: one compact binary record per request the driver completed, written
// by oltpdrive -reqlog and re-analyzed offline by `oltpsim analyze` /
// `oltpsim compare` (internal/analyze). A run stops being a one-shot Report:
// the log carries every request's scheduled arrival, actual send, completion,
// shard, archetype (procedure), status and multi-partition flag, so a
// surprising p99 or a shed spike can be decomposed after the fact.
//
// The file layout is
//
//	magic "OLOG" | version u16 | headerLen u32 | header | recordCount u64 | records
//
// The header is a length-prefixed blob (spec string, shards, conns, offered
// rate, seed, nominal warmup/measure window, procedure name table); each
// record is a length-prefixed varint tuple. Readers reject files written by
// a newer format version with a clear error instead of misparsing them —
// the length prefixes are what let future versions grow both the header and
// the per-record tuple without breaking the frame structure. Encoding is
// canonical: a file that decodes cleanly re-encodes byte-identically, and
// every truncated prefix fails to decode (property-fuzzed in olog_test.go,
// mirroring the wire package's FuzzTwoPC contract).
//
// Records are stored sorted by (scheduled time, connection, capture order),
// so the on-disk order is deterministic given the record contents and the
// scheduled-time delta encoding stays compact.
package olog

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"oltpsim/internal/wire"
)

// Version is the current format version. Decode accepts files up to and
// including this version and rejects newer ones.
const Version = 1

// magic is the file signature.
var magic = [4]byte{'O', 'L', 'O', 'G'}

// Status is a request's outcome as the driver observed it: the wire
// protocol's status vocabulary, stored on disk as its byte value.
type Status = wire.Status

// The statuses a record can carry, documented on wire.Status: ok, abort
// (serviced but failed), overload (shed, never serviced) and drain
// (refused by a draining server).
const (
	StatusOK       = wire.StatusOK
	StatusAbort    = wire.StatusAbort
	StatusOverload = wire.StatusOverload
	StatusDrain    = wire.StatusDrain
)

// Record flag bits.
const (
	// FlagMultiPart marks a committed multi-partition (2PC) transaction.
	FlagMultiPart = 1 << 0
	// FlagMeasured marks a request scheduled inside the measurement window
	// (as the driver decided live; warmup traffic is recorded unflagged).
	FlagMeasured = 1 << 1
)

// Rec is one request. All times are nanoseconds since the run's base (the
// instant every connection was established, before the warmup window).
type Rec struct {
	// Sched is the scheduled arrival: the open-loop pacer's slot, or the
	// actual send time in closed loop. Latency measured from Sched is the
	// coordinated-omission-corrected latency.
	Sched int64
	// Start is the actual send time (>= Sched when the sender lags).
	Start int64
	// Done is the completion time (response decoded).
	Done int64
	// Shard is the partition the request was routed to.
	Shard uint16
	// Proc indexes the header's procedure-name table (the archetype).
	Proc uint16
	// Status is the outcome.
	Status Status
	// Flags carries FlagMultiPart / FlagMeasured.
	Flags uint8
}

// MultiPart reports the multi-partition (2PC) flag.
func (r Rec) MultiPart() bool { return r.Flags&FlagMultiPart != 0 }

// Measured reports whether the request was scheduled inside the measurement
// window.
func (r Rec) Measured() bool { return r.Flags&FlagMeasured != 0 }

// Latency is the coordinated-omission-corrected latency (Done - Sched).
func (r Rec) Latency() int64 { return r.Done - r.Sched }

// Service is the send-to-response service time (Done - Start), excluding
// sender-side queueing delay.
func (r Rec) Service() int64 { return r.Done - r.Start }

// Serviced reports whether the request was actually executed (committed or
// aborted), as opposed to fast-rejected by overload shedding or drain.
func (r Rec) Serviced() bool { return r.Status == StatusOK || r.Status == StatusAbort }

// Header describes the run the records came from.
type Header struct {
	// Spec is the canonical workload spec string (workload.Spec.String()).
	Spec string
	// Shards is the served partition count.
	Shards int
	// Conns is the driver connection count.
	Conns int
	// Rate is the offered open-loop rate in ops/s (0 = closed loop).
	Rate float64
	// Seed is the driver's generator seed.
	Seed uint64
	// WarmupNs and MeasureNs are the nominal window bounds: the measurement
	// window is [WarmupNs, WarmupNs+MeasureNs) in record time.
	WarmupNs  int64
	MeasureNs int64
	// Procs is the procedure-name table Rec.Proc indexes.
	Procs []string
}

// ProcName resolves a record's procedure index ("proc#N" when out of table
// range, so a damaged index never panics a report).
func (h *Header) ProcName(idx uint16) string {
	if int(idx) < len(h.Procs) {
		return h.Procs[idx]
	}
	return fmt.Sprintf("proc#%d", idx)
}

// maxRecLen bounds one encoded record payload: three 10-byte varints, two
// 3-byte varints, two single bytes — comfortably under the u8 length prefix.
const maxRecLen = 255

// Encode writes the file: header, count, then recs in the given order (the
// Log writer sorts before encoding; Encode itself preserves order, and the
// signed-delta encoding of scheduled times tolerates any order).
func Encode(w io.Writer, hdr *Header, recs []Rec) error {
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)

	var hb []byte
	hb = appendStr(hb, hdr.Spec)
	hb = binary.AppendUvarint(hb, uint64(hdr.Shards))
	hb = binary.AppendUvarint(hb, uint64(hdr.Conns))
	hb = binary.LittleEndian.AppendUint64(hb, math.Float64bits(hdr.Rate))
	hb = binary.LittleEndian.AppendUint64(hb, hdr.Seed)
	hb = binary.AppendVarint(hb, hdr.WarmupNs)
	hb = binary.AppendVarint(hb, hdr.MeasureNs)
	hb = binary.AppendUvarint(hb, uint64(len(hdr.Procs)))
	for _, p := range hdr.Procs {
		hb = appendStr(hb, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	if _, err := w.Write(buf); err != nil {
		return err
	}

	var rb [1 + maxRecLen]byte
	prevSched := int64(0)
	for i := range recs {
		r := &recs[i]
		p := rb[1:1]
		p = binary.AppendVarint(p, r.Sched-prevSched)
		prevSched = r.Sched
		p = binary.AppendVarint(p, r.Start-r.Sched)
		p = binary.AppendVarint(p, r.Done-r.Start)
		p = binary.AppendUvarint(p, uint64(r.Shard))
		p = binary.AppendUvarint(p, uint64(r.Proc))
		p = append(p, byte(r.Status), r.Flags)
		rb[0] = byte(len(p))
		if _, err := w.Write(rb[:1+len(p)]); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a complete file from r. It fails on version mismatch, any
// truncation, malformed varints, or trailing bytes beyond the declared
// record count — a prefix of a valid file is never itself a valid file.
func Decode(r io.Reader) (*Header, []Rec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return DecodeBytes(data)
}

// DecodeBytes is Decode over an in-memory file image.
func DecodeBytes(data []byte) (*Header, []Rec, error) {
	if len(data) < len(magic)+2+4 {
		return nil, nil, fmt.Errorf("olog: truncated preamble (%d bytes)", len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, nil, fmt.Errorf("olog: bad magic %q", data[:4])
	}
	ver := binary.LittleEndian.Uint16(data[4:6])
	if ver == 0 || ver > Version {
		return nil, nil, fmt.Errorf("olog: file format version %d not supported (this build reads up to %d; written by a newer oltpsim?)", ver, Version)
	}
	hlen := int(binary.LittleEndian.Uint32(data[6:10]))
	rest := data[10:]
	if len(rest) < hlen {
		return nil, nil, fmt.Errorf("olog: truncated header (%d of %d bytes)", len(rest), hlen)
	}
	hdr, err := decodeHeader(rest[:hlen])
	if err != nil {
		return nil, nil, err
	}
	rest = rest[hlen:]
	if len(rest) < 8 {
		return nil, nil, fmt.Errorf("olog: truncated record count")
	}
	count := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if count > uint64(len(rest)) { // each record is at least 1 byte
		return nil, nil, fmt.Errorf("olog: truncated records (%d declared, %d bytes remain)", count, len(rest))
	}
	recs := make([]Rec, 0, count)
	prevSched := int64(0)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("olog: truncated records (%d of %d)", i, count)
		}
		rlen := int(rest[0])
		rest = rest[1:]
		if len(rest) < rlen {
			return nil, nil, fmt.Errorf("olog: record %d truncated (%d of %d bytes)", i, len(rest), rlen)
		}
		rec, err := decodeRec(rest[:rlen], prevSched)
		if err != nil {
			return nil, nil, fmt.Errorf("olog: record %d: %w", i, err)
		}
		prevSched = rec.Sched
		recs = append(recs, rec)
		rest = rest[rlen:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("olog: %d trailing bytes after %d records", len(rest), count)
	}
	return hdr, recs, nil
}

func decodeHeader(b []byte) (*Header, error) {
	d := decoder{b: b}
	h := &Header{
		Spec:   d.str(),
		Shards: int(d.uvarint()),
		Conns:  int(d.uvarint()),
		Rate:   math.Float64frombits(d.u64()),
		Seed:   d.u64(),
	}
	h.WarmupNs = d.varint()
	h.MeasureNs = d.varint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) { // each name costs >= 1 byte
		d.err = fmt.Errorf("olog: header declares %d procedures in %d bytes", n, len(d.b))
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		h.Procs = append(h.Procs, d.str())
	}
	if d.err != nil {
		return nil, fmt.Errorf("olog: header: %w", d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("olog: header: %d trailing bytes", len(d.b))
	}
	return h, nil
}

func decodeRec(b []byte, prevSched int64) (Rec, error) {
	d := decoder{b: b}
	var r Rec
	r.Sched = prevSched + d.varint()
	r.Start = r.Sched + d.varint()
	r.Done = r.Start + d.varint()
	shard := d.uvarint()
	proc := d.uvarint()
	if d.err == nil && (shard > math.MaxUint16 || proc > math.MaxUint16) {
		d.err = fmt.Errorf("shard/proc out of range (%d/%d)", shard, proc)
	}
	r.Shard = uint16(shard)
	r.Proc = uint16(proc)
	if d.err == nil && len(d.b) != 2 {
		d.err = fmt.Errorf("bad tail length %d", len(d.b))
	}
	if d.err != nil {
		return Rec{}, d.err
	}
	r.Status = Status(d.b[0])
	r.Flags = d.b[1]
	return r, nil
}

// decoder is a tiny error-latching cursor over a byte slice.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint")
		return 0
	}
	// Reject non-minimal encodings (a padded continuation byte), keeping the
	// format canonical: a clean decode always re-encodes byte-identically.
	if n > 1 && v>>(7*uint(n-1)) == 0 {
		d.err = fmt.Errorf("non-minimal uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint() // varint = zigzag-coded uvarint; shares its minimality check
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated string (%d of %d bytes)", len(d.b), n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadFile decodes a request log from disk.
func ReadFile(path string) (*Header, []Rec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	hdr, recs, err := DecodeBytes(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return hdr, recs, nil
}
