package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"oltpsim/internal/catalog"
)

func TestFrameRoundTrip(t *testing.T) {
	var w Buffer
	w.Reset(MsgExec)
	w.U32(7)       // reqID
	w.U32(3)       // procID
	w.U16(1)       // part
	w.U16(2)       // argc
	w.U8(TagLong)  // arg 0
	w.I64(-42)     //
	w.U8(TagBytes) // arg 1
	w.Blob([]byte("hello"))

	var conn bytes.Buffer
	conn.Write(w.Bytes())
	// A second frame on the same stream.
	w.Reset(MsgOK)
	w.U32(7)
	conn.Write(w.Bytes())

	typ, payload, buf, err := ReadFrame(&conn, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgExec {
		t.Fatalf("type = %#x, want MsgExec", typ)
	}
	r := NewReader(payload)
	if id, proc, part, argc := r.U32(), r.U32(), r.U16(), r.U16(); id != 7 || proc != 3 || part != 1 || argc != 2 {
		t.Fatalf("decoded header = %d/%d/%d/%d", id, proc, part, argc)
	}
	if tag := r.U8(); tag != TagLong {
		t.Fatalf("arg0 tag = %d", tag)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("arg0 = %d, want -42", v)
	}
	if tag := r.U8(); tag != TagBytes {
		t.Fatalf("arg1 tag = %d", tag)
	}
	if b := r.Blob(); string(b) != "hello" {
		t.Fatalf("arg1 = %q, want hello", b)
	}
	if r.Err != nil || r.Remaining() != 0 {
		t.Fatalf("leftover decode state: err=%v remaining=%d", r.Err, r.Remaining())
	}

	typ, payload, _, err = ReadFrame(&conn, buf)
	if err != nil || typ != MsgOK {
		t.Fatalf("second frame: type=%#x err=%v", typ, err)
	}
	r = NewReader(payload)
	if id := r.U32(); id != 7 || r.Err != nil {
		t.Fatalf("second frame id = %d err=%v", id, r.Err)
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if r.Err == nil {
		t.Fatal("truncated U32 did not latch an error")
	}
	// Further reads stay safe and keep the first error.
	_ = r.I64()
	_ = r.Str()
	_ = r.Blob()
	if r.Err == nil || !strings.Contains(r.Err.Error(), "truncated") {
		t.Fatalf("latched error = %v", r.Err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Length 0 (no type byte).
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Absurd length.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x01}), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 0x01}), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var w Buffer
	w.Reset(MsgHello)
	w.U8(Version)
	w.U16(4)
	w.Str("tpcc:warehouses=4")
	typ, payload, _, err := ReadFrame(bytes.NewReader(w.Bytes()), nil)
	if err != nil || typ != MsgHello {
		t.Fatalf("hello: %#x %v", typ, err)
	}
	r := NewReader(payload)
	if v, shards, spec := r.U8(), r.U16(), r.Str(); v != Version || shards != 4 || spec != "tpcc:warehouses=4" {
		t.Fatalf("decoded hello = %d/%d/%q", v, shards, spec)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestBufferReuse proves the encode path reuses its backing array (the
// per-connection zero-allocation property the server relies on).
func TestBufferReuse(t *testing.T) {
	var w Buffer
	w.Reset(MsgOK)
	w.U32(1)
	_ = w.Bytes()
	if avg := testing.AllocsPerRun(1000, func() {
		w.Reset(MsgOK)
		w.U32(2)
		_ = w.Bytes()
	}); avg != 0 {
		t.Fatalf("steady-state encode allocates %.1f times per frame, want 0", avg)
	}
}

// TestErrFrameRoundTrip pins the version 2 Err frame byte for byte and
// decodes it back to a typed *Error that errors.As finds through wrapping.
func TestErrFrameRoundTrip(t *testing.T) {
	var w Buffer
	w.Reset(MsgErr)
	w.U32(9)
	w.U8(byte(StatusOverload))
	w.Str("shed")
	want := []byte{
		12, 0, 0, 0, // length = 1 type + 4 + 1 + 2 + 4
		MsgErr,
		9, 0, 0, 0,
		byte(StatusOverload),
		4, 0, 's', 'h', 'e', 'd',
	}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("Err frame:\n got %x\nwant %x", got, want)
	}
	for _, st := range []Status{StatusAbort, StatusOverload, StatusDrain} {
		w.Reset(MsgErr)
		w.U32(3)
		w.U8(byte(st))
		w.Str("oltpd: " + st.String())
		typ, payload, _, err := ReadFrame(bytes.NewReader(w.Bytes()), nil)
		if err != nil || typ != MsgErr {
			t.Fatalf("%v: %#x %v", st, typ, err)
		}
		r := NewReader(payload)
		if id := r.U32(); id != 3 {
			t.Fatalf("%v: reqID %d", st, id)
		}
		derr := DecodeErr(&r)
		var we *Error
		if !errors.As(fmt.Errorf("outer: %w", derr), &we) {
			t.Fatalf("%v: errors.As missed %T", st, derr)
		}
		if we.Status != st || we.Msg != "oltpd: "+st.String() || r.Remaining() != 0 {
			t.Fatalf("decoded %+v (remaining %d), want status %v", we, r.Remaining(), st)
		}
	}
	// An Err frame never means success: out-of-vocabulary bytes are aborts.
	for _, b := range []byte{byte(StatusOK), 4, 0xFF} {
		r := NewReader([]byte{b})
		if st := r.Status(); st != StatusAbort || r.Err != nil {
			t.Fatalf("status byte %d decodes as %v (%v), want abort", b, st, r.Err)
		}
	}
	// Reading the status alone (the pipelined driver's read loop) is
	// allocation-free.
	payload := want[5:]
	if avg := testing.AllocsPerRun(100, func() {
		r := NewReader(payload)
		_ = r.U32()
		_ = r.Status()
	}); avg != 0 {
		t.Fatalf("status decode allocates %.1f times", avg)
	}
}

// TestArgsEncoding pins the argument list layout shared by Exec and
// Prepare2PC.
func TestArgsEncoding(t *testing.T) {
	var w Buffer
	w.Reset(MsgExec)
	w.Args([]catalog.Value{catalog.LongVal(-2), catalog.StringVal([]byte("ab"))})
	want := []byte{
		19, 0, 0, 0, MsgExec, // length = 1 type + 2 + 9 + 7
		2, 0,
		TagLong, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		TagBytes, 2, 0, 0, 0, 'a', 'b',
	}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("args:\n got %x\nwant %x", got, want)
	}
}

// TestHandshake runs the client handshake against a scripted server: a
// Hello, then one Prepared and one Err answer.
func TestHandshake(t *testing.T) {
	script := func(hello func(w *Buffer), answers ...func(w *Buffer)) io.Reader {
		var in bytes.Buffer
		var w Buffer
		hello(&w)
		in.Write(w.Bytes())
		for _, a := range answers {
			a(&w)
			in.Write(w.Bytes())
		}
		return &in
	}
	hello := func(ver byte, spec string) func(w *Buffer) {
		return func(w *Buffer) {
			w.Reset(MsgHello)
			w.U8(ver)
			w.U16(3)
			w.Str(spec)
		}
	}
	prepared := func(id, proc uint32) func(w *Buffer) {
		return func(w *Buffer) {
			w.Reset(MsgPrepared)
			w.U32(id)
			w.U32(proc)
		}
	}
	var sent bytes.Buffer
	shards, ids, err := Handshake(script(hello(Version, "micro"), prepared(0, 7), prepared(1, 4)),
		&sent, "micro", []string{"a", "b"})
	if err != nil || shards != 3 || len(ids) != 2 || ids[0] != 7 || ids[1] != 4 {
		t.Fatalf("handshake = %d %v %v", shards, ids, err)
	}
	if typ, payload, _, err := ReadFrame(&sent, nil); err != nil || typ != MsgPrepare || !bytes.Contains(payload, []byte("a")) {
		t.Fatalf("first prepare frame %#x %q %v", typ, payload, err)
	}

	if _, _, err := Handshake(script(hello(1, "micro")), io.Discard, "micro", nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version 1 server accepted: %v", err)
	}
	if _, _, err := Handshake(script(hello(Version, "tpcc")), io.Discard, "micro", nil); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("spec mismatch accepted: %v", err)
	}
	refuse := func(w *Buffer) {
		w.Reset(MsgErr)
		w.U32(0)
		w.U8(byte(StatusAbort))
		w.Str("unknown procedure")
	}
	_, _, err = Handshake(script(hello(Version, "micro"), refuse), io.Discard, "micro", []string{"x"})
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusAbort {
		t.Fatalf("refused prepare: %v", err)
	}
}
