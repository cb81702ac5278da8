package wire

import (
	"bytes"
	"testing"
)

// FuzzTwoPC guards the 2PC frame codec the cluster tier depends on
// (internal/cluster coordinator ↔ internal/server participant), plus the Err
// frame whose status byte answers a refused prepare or decision. Three
// properties over arbitrary byte streams:
//
//  1. decoding never panics — malformed input latches Reader.Err;
//  2. a frame that decodes cleanly (no error, no remaining bytes)
//     re-encodes to the identical byte string — the encoding is canonical,
//     so coordinator and participant cannot disagree on a frame's meaning;
//  3. every proper prefix of a clean frame's payload latches an error —
//     a truncated frame can never be mistaken for a shorter valid one.
//
// CI runs this as a 30-second smoke:
//
//	go test -run '^FuzzTwoPC$' -fuzz FuzzTwoPC -fuzztime 30s ./internal/wire
func FuzzTwoPC(f *testing.F) {
	seed := func(build func(w *Buffer)) {
		var w Buffer
		build(&w)
		f.Add(append([]byte(nil), w.Bytes()...))
	}
	seed(func(w *Buffer) { // PREPARE2PC, two args
		w.Reset(MsgPrepare2PC)
		w.U32(7)
		w.U64(0xDEADBEEF01)
		w.U32(3)
		w.U16(2)
		w.U16(2)
		w.U8(TagLong)
		w.I64(-42)
		w.U8(TagBytes)
		w.Blob([]byte("payload"))
	})
	seed(func(w *Buffer) { // PREPARE2PC, no args
		w.Reset(MsgPrepare2PC)
		w.U32(1)
		w.U64(1)
		w.U32(0)
		w.U16(0)
		w.U16(0)
	})
	seed(func(w *Buffer) { // YES vote
		w.Reset(MsgVote)
		w.U32(7)
		w.U8(1)
	})
	seed(func(w *Buffer) { // NO vote with reason
		w.Reset(MsgVote)
		w.U32(7)
		w.U8(0)
		w.Str("engine: key not found")
	})
	for _, st := range []Status{StatusAbort, StatusOverload, StatusDrain} {
		seed(func(w *Buffer) { // Err: a NO vote from admission, or a refused decision
			w.Reset(MsgErr)
			w.U32(7)
			w.U8(byte(st))
			w.Str("oltpd: " + st.String())
		})
	}
	seed(func(w *Buffer) {
		w.Reset(MsgCommit2PC)
		w.U32(8)
		w.U64(0xDEADBEEF01)
		w.U16(2)
	})
	seed(func(w *Buffer) {
		w.Reset(MsgAbort2PC)
		w.U32(9)
		w.U64(0xDEADBEEF01)
		w.U16(2)
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // framing layer rejected it; nothing to decode
		}
		switch typ {
		case MsgPrepare2PC, MsgVote, MsgCommit2PC, MsgAbort2PC, MsgErr:
		default:
			return
		}
		var w Buffer
		ok := decodeReencode(typ, payload, &w)
		if !ok {
			return // latched a decode error: malformed but safe
		}
		frame := w.Bytes()
		want := data[:4+1+len(payload)]
		if !bytes.Equal(frame, want) {
			t.Fatalf("type %#x: re-encode differs\n got %x\nwant %x", typ, frame, want)
		}
		// Truncation property: chopping any suffix off the payload must latch
		// an error — no proper prefix is itself a valid frame of this type.
		for n := 0; n < len(payload); n++ {
			var w2 Buffer
			if decodeReencode(typ, payload[:n], &w2) {
				t.Fatalf("type %#x: %d-byte prefix of %d-byte payload decoded cleanly",
					typ, n, len(payload))
			}
		}
	})
}

// decodeReencode decodes payload as a 2PC frame of the given type and
// re-encodes the decoded fields into w. It reports false when the decode
// latched an error, consumed fewer bytes than the payload holds, or met an
// unknown argument tag.
func decodeReencode(typ byte, payload []byte, w *Buffer) bool {
	r := NewReader(payload)
	w.Reset(typ)
	switch typ {
	case MsgPrepare2PC:
		w.U32(r.U32())
		w.U64(r.U64())
		w.U32(r.U32())
		w.U16(r.U16())
		argc := r.U16()
		w.U16(argc)
		for i := 0; i < int(argc) && r.Err == nil; i++ {
			switch tag := r.U8(); tag {
			case TagLong:
				w.U8(tag)
				w.I64(r.I64())
			case TagBytes:
				w.U8(tag)
				w.Blob(r.Blob())
			default:
				return false
			}
		}
	case MsgVote:
		w.U32(r.U32())
		commit := r.U8()
		w.U8(commit)
		if commit == 0 {
			w.Str(r.Str())
		}
	case MsgCommit2PC, MsgAbort2PC:
		w.U32(r.U32())
		w.U64(r.U64())
		w.U16(r.U16())
	case MsgErr:
		w.U32(r.U32())
		st := r.U8()
		if sr := NewReader([]byte{st}); sr.Status() != Status(st) {
			return false // not a failure status: it decodes as an abort, not canonically
		}
		w.U8(st)
		w.Str(r.Str())
	}
	return r.Err == nil && r.Remaining() == 0
}

// TestTwoPCFrameShapes pins the documented field layout byte for byte, so a
// codec change that would break mixed-version clusters fails loudly even
// without the fuzzer.
func TestTwoPCFrameShapes(t *testing.T) {
	var w Buffer
	w.Reset(MsgCommit2PC)
	w.U32(0x11223344)
	w.U64(0x0102030405060708)
	w.U16(0x0A0B)
	got := w.Bytes()
	want := []byte{
		15, 0, 0, 0, // length = 1 type + 4 + 8 + 2
		MsgCommit2PC,
		0x44, 0x33, 0x22, 0x11,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x0B, 0x0A,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("COMMIT2PC frame:\n got %x\nwant %x", got, want)
	}

	w.Reset(MsgVote)
	w.U32(5)
	w.U8(0)
	w.Str("no")
	r := NewReader(w.Bytes()[5:])
	if id, c, reason := r.U32(), r.U8(), r.Str(); id != 5 || c != 0 || reason != "no" || r.Err != nil {
		t.Fatalf("vote round-trip: %d %d %q %v", id, c, reason, r.Err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("vote frame has %d trailing bytes", r.Remaining())
	}
}
