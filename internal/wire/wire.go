// Package wire defines the oltpd client/server protocol: length-prefixed
// binary frames carrying prepare/exec/result messages. Both ends of the
// serving loop — internal/server (oltpd) and the clients in internal/driver
// (oltpdrive) and internal/cluster (the routing 2PC coordinator) — speak
// exactly this codec, and share its client handshake (Handshake) and
// argument encoder (Buffer.Args).
//
// Framing (all integers little-endian):
//
//	u32 length | u8 type | payload[length-1]
//
// Messages (protocol version 2):
//
//	Hello    (server→client, on accept): u8 version | u16 shards |
//	         u16 len | workload-spec string
//	Prepare  (client→server): u32 reqID | u16 len | procedure name
//	Prepared (server→client): u32 reqID | u32 procID
//	Exec     (client→server): u32 reqID | u32 procID | u16 part |
//	         u16 argc | argc × arg
//	OK       (server→client): u32 reqID
//	Err      (server→client): u32 reqID | u8 status | u16 len | message
//
// The Err frame's status byte is the outcome clients act on; the message is
// for humans only. Its values are the Status constants, numbered as the
// request log (internal/olog) stores them on disk: 1 abort (the request
// failed: an engine abort or a request the server could not run), 2
// overload (shed by admission control; the connection stays up), 3 drain
// (refused by a draining server; the connection is winding down).
//
// Two-phase-commit messages (the cluster serving tier, internal/cluster):
//
//	Prepare2PC (coordinator→participant): u32 reqID | u64 gtid |
//	           u32 procID | u16 part | u16 argc | argc × arg —
//	           execute the branch with staged writes and vote
//	Vote       (participant→coordinator): u32 reqID | u8 commit |
//	           (commit=0 only) u16 len | reason
//	Commit2PC  (coordinator→participant): u32 reqID | u64 gtid | u16 part —
//	           install the staged writes; acked with OK
//	Abort2PC   (coordinator→participant): u32 reqID | u64 gtid | u16 part —
//	           discard the staged writes; acked with OK (presumed abort:
//	           an Abort2PC for an unknown gtid is a successful no-op,
//	           a Commit2PC for an unknown gtid is an Err)
//
// Argument encoding: u8 tag, then for TagLong an i64, for TagBytes a
// u32 length + raw bytes. This mirrors catalog.Value (I int64 / S []byte).
//
// Responses carry the client-assigned request ID because oltpd executes
// requests in per-shard batches: two requests pipelined on one connection to
// different shards may complete in either order.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"oltpsim/internal/catalog"
)

// Version is the protocol version exchanged in Hello.
const Version = 2

// Frame type bytes.
const (
	MsgHello    = 0x01
	MsgPrepare  = 0x02
	MsgPrepared = 0x03
	MsgExec     = 0x04
	MsgOK       = 0x05
	MsgErr      = 0x06

	// Two-phase commit (cluster serving tier).
	MsgPrepare2PC = 0x07
	MsgVote       = 0x08
	MsgCommit2PC  = 0x09
	MsgAbort2PC   = 0x0A
)

// Argument tags.
const (
	TagLong  = 0x00
	TagBytes = 0x01
)

// MaxFrame caps a frame's length field: a defense against garbage on the
// socket turning into a huge allocation.
const MaxFrame = 1 << 20

// Status is a request's outcome: OK for an OK frame, and the status byte of
// an Err frame otherwise. The request log (internal/olog) stores these
// values on disk, so they never change.
type Status uint8

const (
	// StatusOK is a serviced, committed request.
	StatusOK Status = iota
	// StatusAbort is a failed request: the engine aborted it, or the server
	// could not run it (unknown procedure, partition not served, ...).
	StatusAbort
	// StatusOverload is a request shed by admission control: fast-rejected,
	// never serviced. Unlike StatusDrain it is a verdict about this request
	// only — the connection stays up and clients keep their schedule.
	StatusOverload
	// StatusDrain is a request refused by a draining server; clients wind
	// the connection down.
	StatusDrain
)

// String names the status for reports.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAbort:
		return "abort"
	case StatusOverload:
		return "overload"
	case StatusDrain:
		return "drain"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Error is an Err frame as a Go error: the typed status plus the server's
// message. Clients classify failures with errors.As on *Error, never by the
// message text.
type Error struct {
	Status Status
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// DecodeErr decodes an Err frame's body after the request ID.
func DecodeErr(r *Reader) error {
	st := r.Status()
	msg := r.Str()
	if r.Err != nil {
		return r.Err
	}
	return &Error{Status: st, Msg: msg}
}

// Buffer accumulates one outgoing frame. The zero value is ready; the
// backing array is reused across frames, so steady-state encoding does not
// allocate. Not safe for concurrent use — each connection/worker owns one.
type Buffer struct {
	b []byte
}

// Reset begins a frame of the given type, reserving the length prefix.
//
//oltpsim:hotpath
func (w *Buffer) Reset(msgType byte) {
	w.b = append(w.b[:0], 0, 0, 0, 0, msgType)
}

// Bytes finalizes the frame (patching the length prefix) and returns it.
// The slice is valid until the next Reset.
//
//oltpsim:hotpath
func (w *Buffer) Bytes() []byte {
	binary.LittleEndian.PutUint32(w.b[:4], uint32(len(w.b)-4))
	return w.b
}

// U8 appends one byte.
//
//oltpsim:hotpath
func (w *Buffer) U8(v byte) { w.b = append(w.b, v) }

// U16 appends a little-endian uint16.
//
//oltpsim:hotpath
func (w *Buffer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
//
//oltpsim:hotpath
func (w *Buffer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// I64 appends a little-endian int64.
//
//oltpsim:hotpath
func (w *Buffer) I64(v int64) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

// U64 appends a little-endian uint64 (2PC global transaction IDs).
//
//oltpsim:hotpath
func (w *Buffer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Str appends a u16-length-prefixed string.
//
//oltpsim:hotpath
func (w *Buffer) Str(s string) {
	w.U16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// Blob appends a u32-length-prefixed byte string.
//
//oltpsim:hotpath
func (w *Buffer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.b = append(w.b, b...)
}

// Args appends an Exec/Prepare2PC argument list: u16 argc, then each value
// tagged (TagBytes for a byte string, TagLong otherwise).
//
//oltpsim:hotpath
func (w *Buffer) Args(args []catalog.Value) {
	w.U16(uint16(len(args)))
	for _, a := range args {
		if a.S != nil {
			w.U8(TagBytes)
			w.Blob(a.S)
		} else {
			w.U8(TagLong)
			w.I64(a.I)
		}
	}
}

// ReadFrame reads one frame into buf (growing it as needed) and returns the
// message type and payload (aliasing buf, valid until the next read into it).
func ReadFrame(r io.Reader, buf []byte) (msgType byte, payload, newBuf []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: bad frame length %d", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// Reader decodes a frame payload. Decoding errors latch into Err; callers
// check once at the end instead of after every field.
type Reader struct {
	b   []byte
	Err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("wire: truncated frame")
	}
}

// U8 decodes one byte.
func (r *Reader) U8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Status decodes an Err frame's status byte. A byte outside the failure
// statuses decodes as StatusAbort: an Err frame never means success.
func (r *Reader) Status() Status {
	switch st := Status(r.U8()); st {
	case StatusOverload, StatusDrain:
		return st
	}
	return StatusAbort
}

// Str decodes a u16-length-prefixed string (copying).
func (r *Reader) Str() string {
	n := int(r.U16())
	if len(r.b) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Blob decodes a u32-length-prefixed byte string. The result aliases the
// payload — callers copy it if it must outlive the frame buffer.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) }

// Handshake runs the client side of connection setup: it reads the server's
// Hello from r, checks the protocol version and workload spec, then
// prepares every procedure in procs, in order, writing to w. It returns the
// served shard count and the server's procedure IDs, indexed like procs.
func Handshake(r io.Reader, w io.Writer, spec string, procs []string) (shards int, ids []uint32, err error) {
	typ, payload, frame, err := ReadFrame(r, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("reading hello: %w", err)
	}
	if typ != MsgHello {
		return 0, nil, fmt.Errorf("expected hello, got frame %#x", typ)
	}
	hr := NewReader(payload)
	ver := hr.U8()
	shards = int(hr.U16())
	serverSpec := hr.Str()
	if hr.Err != nil || ver != Version {
		return 0, nil, fmt.Errorf("bad hello (version %d, want %d): %v", ver, Version, hr.Err)
	}
	if serverSpec != spec {
		return 0, nil, fmt.Errorf("workload mismatch: server serves %q, client generates %q", serverSpec, spec)
	}
	var wb Buffer
	ids = make([]uint32, len(procs))
	for i, name := range procs {
		wb.Reset(MsgPrepare)
		wb.U32(uint32(i))
		wb.Str(name)
		if _, err := w.Write(wb.Bytes()); err != nil {
			return 0, nil, err
		}
		typ, payload, frame, err = ReadFrame(r, frame)
		if err != nil {
			return 0, nil, err
		}
		pr := NewReader(payload)
		_ = pr.U32() // reqID
		switch typ {
		case MsgPrepared:
			ids[i] = pr.U32()
		case MsgErr:
			err = DecodeErr(&pr)
			return 0, nil, fmt.Errorf("prepare %q: %w", name, err)
		default:
			return 0, nil, fmt.Errorf("prepare %q: unexpected frame %#x", name, typ)
		}
		if pr.Err != nil {
			return 0, nil, pr.Err
		}
	}
	return shards, ids, nil
}
