package olog_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"oltpsim/internal/olog"
	"oltpsim/internal/wire"
)

func sampleHeader() olog.Header {
	return olog.Header{
		Spec:      "tpcb:accounts=100000",
		Shards:    4,
		Conns:     8,
		Rate:      5000,
		Seed:      42,
		WarmupNs:  1e9,
		MeasureNs: 3e9,
		Procs:     []string{"tpcb", "deposit"},
	}
}

func sampleRecs(n int, rng *rand.Rand) []olog.Rec {
	recs := make([]olog.Rec, n)
	sched := int64(0)
	for i := range recs {
		sched += rng.Int63n(1_000_000)
		start := sched + rng.Int63n(50_000)
		recs[i] = olog.Rec{
			Sched:  sched,
			Start:  start,
			Done:   start + rng.Int63n(5_000_000),
			Shard:  uint16(rng.Intn(4)),
			Proc:   uint16(rng.Intn(2)),
			Status: olog.Status(rng.Intn(4)),
			Flags:  uint8(rng.Intn(4)),
		}
	}
	return recs
}

// TestRoundTrip: encode→decode is the identity on header and records.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1000} {
		hdr := sampleHeader()
		recs := sampleRecs(n, rng)
		var buf bytes.Buffer
		if err := olog.Encode(&buf, &hdr, recs); err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		gotHdr, gotRecs, err := olog.DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(*gotHdr, hdr) {
			t.Fatalf("n=%d: header mismatch\n got %+v\nwant %+v", n, *gotHdr, hdr)
		}
		if len(gotRecs) != len(recs) {
			t.Fatalf("n=%d: got %d records, want %d", n, len(gotRecs), len(recs))
		}
		for i := range recs {
			if gotRecs[i] != recs[i] {
				t.Fatalf("n=%d: record %d mismatch\n got %+v\nwant %+v", n, i, gotRecs[i], recs[i])
			}
		}
	}
}

// TestStatusOnDisk pins the status byte a record stores to the wire
// protocol's status values: the two share one vocabulary, and logs written
// before they did must decode unchanged.
func TestStatusOnDisk(t *testing.T) {
	for _, tc := range []struct {
		st   wire.Status
		b    byte
		name string
	}{
		{wire.StatusOK, 0, "ok"},
		{wire.StatusAbort, 1, "abort"},
		{wire.StatusOverload, 2, "overload"},
		{wire.StatusDrain, 3, "drain"},
	} {
		hdr := sampleHeader()
		var buf bytes.Buffer
		if err := olog.Encode(&buf, &hdr, []olog.Rec{{Sched: 5, Start: 6, Done: 9, Status: tc.st}}); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		// A record ends with its status byte and flags byte.
		if got := out[len(out)-2]; got != tc.b {
			t.Fatalf("%v: status byte on disk = %d, want %d", tc.st, got, tc.b)
		}
		_, recs, err := olog.DecodeBytes(out)
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Status != tc.st || recs[0].Status.String() != tc.name {
			t.Fatalf("byte %d decodes as %v, want %s", tc.b, recs[0].Status, tc.name)
		}
	}
}

// TestTruncationLatches: every proper prefix of a valid file fails to
// decode — a truncated log can never be mistaken for a shorter valid one.
// (FuzzOlog re-checks this over arbitrary corpus inputs.)
func TestTruncationLatches(t *testing.T) {
	hdr := sampleHeader()
	recs := sampleRecs(5, rand.New(rand.NewSource(2)))
	var buf bytes.Buffer
	if err := olog.Encode(&buf, &hdr, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		if _, _, err := olog.DecodeBytes(data[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte file decoded cleanly", n, len(data))
		}
	}
	// Trailing garbage is equally rejected.
	if _, _, err := olog.DecodeBytes(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("file with a trailing byte decoded cleanly")
	}
}

// TestVersionGate: a file stamped with a newer format version is refused
// with a clear error instead of being misparsed.
func TestVersionGate(t *testing.T) {
	hdr := sampleHeader()
	var buf bytes.Buffer
	if err := olog.Encode(&buf, &hdr, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = byte(olog.Version + 1) // little-endian u16 version at offset 4
	if _, _, err := olog.DecodeBytes(data); err == nil {
		t.Fatal("version+1 file decoded cleanly")
	}
}

// TestWriterMergeSort: records captured on interleaved connections come back
// sorted by (scheduled time, connection, capture order).
func TestWriterMergeSort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.olog")
	l, err := olog.Create(path, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := l.NewConn(), l.NewConn()
	// Interleaved, deliberately out of global order; conn 1 shares sched=200
	// with conn 0 to exercise the connection tiebreak.
	c0.Record(olog.Rec{Sched: 300, Start: 300, Done: 350, Shard: 0})
	c0.Record(olog.Rec{Sched: 100, Start: 100, Done: 150, Shard: 0})
	c0.Record(olog.Rec{Sched: 200, Start: 200, Done: 250, Shard: 0})
	c1.Record(olog.Rec{Sched: 200, Start: 200, Done: 240, Shard: 1})
	c1.Record(olog.Rec{Sched: 50, Start: 50, Done: 90, Shard: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := olog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantSched := []int64{50, 100, 200, 200, 300}
	wantShard := []uint16{1, 0, 0, 1, 0}
	if len(recs) != len(wantSched) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantSched))
	}
	for i := range recs {
		if recs[i].Sched != wantSched[i] || recs[i].Shard != wantShard[i] {
			t.Fatalf("record %d = {sched %d, shard %d}, want {sched %d, shard %d}",
				i, recs[i].Sched, recs[i].Shard, wantSched[i], wantShard[i])
		}
	}
}

// TestRecordAllocs gates the capture hot path: once a chunk exists,
// ConnLog.Record must not allocate (the driver calls it on the read loop
// inside the measurement window).
func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	var c olog.ConnLog
	c.Record(olog.Rec{}) // trigger the first chunk allocation
	i := int64(1)
	avg := testing.AllocsPerRun(1000, func() {
		c.Record(olog.Rec{Sched: i, Start: i, Done: i + 10})
		i++
	})
	if avg != 0 {
		t.Fatalf("ConnLog.Record allocates %.1f times per call in steady state", avg)
	}
}

// FuzzOlog mirrors the wire package's FuzzTwoPC contract for the request-log
// file format: decoding never panics; a file that decodes cleanly re-encodes
// byte-identically (canonical encoding); every proper prefix of a clean file
// latches an error.
func FuzzOlog(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 5} {
		hdr := sampleHeader()
		var buf bytes.Buffer
		if err := olog.Encode(&buf, &hdr, sampleRecs(n, rng)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("OLOG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := olog.DecodeBytes(data)
		if err != nil {
			return // rejected: malformed but safe
		}
		var buf bytes.Buffer
		if err := olog.Encode(&buf, hdr, recs); err != nil {
			t.Fatalf("re-encode of a clean decode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encode differs\n got %x\nwant %x", buf.Bytes(), data)
		}
		for n := 0; n < len(data); n++ {
			if _, _, err := olog.DecodeBytes(data[:n]); err == nil {
				t.Fatalf("%d-byte prefix of a clean %d-byte file decoded cleanly", n, len(data))
			}
		}
	})
}
