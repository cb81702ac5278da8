package server

import (
	"bufio"
	"fmt"
	"net"
	"testing"

	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// BenchmarkServeLoopback measures the full serving path per request: wire
// encode → TCP loopback → decode → shard queue → group-execute on the
// simulated engine → response. One closed-loop client, 2 shards; ns/op is
// the end-to-end round trip (recorded in BENCH_<date>.json by
// scripts/bench.sh).
func BenchmarkServeLoopback(b *testing.B) {
	s, err := New(Config{
		System: systems.VoltDB,
		Shards: 2,
		Spec:   workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()

	nc, err := dialRaw(s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.nc.Close()
	procID, err := nc.prepare("micro_ro")
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := i % 2
		key := int64(2*(i%2000) + part)
		if err := nc.execWait(uint32(i), procID, part, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeLoopbackBatch8 is the same path with 8 requests pipelined
// per wait: the batching amortization the shard workers' group-execute loop
// provides. It runs twice: serial forces the serialized session path
// (Config.Serial), concurrent is oltpd's default for a multi-shard engine
// (one goroutine per shard on a concurrent-mode hierarchy). The concurrent
// mode earns its keep when its ns/op is no worse than serial's:
//
//	go test -run '^$' -bench ServeLoopbackBatch8 -count 5 ./internal/server
func BenchmarkServeLoopbackBatch8(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"concurrent", false}} {
		b.Run(mode.name, func(b *testing.B) { benchServeBatch8(b, mode.serial) })
	}
}

func benchServeBatch8(b *testing.B, serial bool) {
	s, err := New(Config{
		System: systems.VoltDB,
		Shards: 2,
		Spec:   workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1},
		Serial: serial,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()

	nc, err := dialRaw(s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.nc.Close()
	procID, err := nc.prepare("micro_ro")
	if err != nil {
		b.Fatal(err)
	}

	const window = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		n := window
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			part := (i + j) % 2
			key := int64(2*((i+j)%2000) + part)
			if err := nc.exec(uint32(i+j), procID, part, key); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			if _, err := nc.readResult(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// rawClient is the benchmark's minimal client (no *testing.T plumbing).
type rawClient struct {
	nc   net.Conn
	br   *bufio.Reader
	buf  []byte
	wbuf wire.Buffer
}

func dialRaw(addr string) (*rawClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &rawClient{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	typ, _, err := c.readFrame()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if typ != wire.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("expected hello, got %#x", typ)
	}
	return c, nil
}

func (c *rawClient) readFrame() (byte, []byte, error) {
	typ, payload, buf, err := wire.ReadFrame(c.br, c.buf)
	c.buf = buf
	return typ, payload, err
}

func errFrame(typ byte, payload []byte) error {
	return fmt.Errorf("unexpected frame %#x: %q", typ, payload)
}

func (c *rawClient) prepare(name string) (uint32, error) {
	c.wbuf.Reset(wire.MsgPrepare)
	c.wbuf.U32(0)
	c.wbuf.Str(name)
	if _, err := c.nc.Write(c.wbuf.Bytes()); err != nil {
		return 0, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	if typ != wire.MsgPrepared {
		return 0, errFrame(typ, payload)
	}
	r := wire.NewReader(payload)
	_ = r.U32()
	return r.U32(), r.Err
}

func (c *rawClient) exec(id, procID uint32, part int, key int64) error {
	c.wbuf.Reset(wire.MsgExec)
	c.wbuf.U32(id)
	c.wbuf.U32(procID)
	c.wbuf.U16(uint16(part))
	c.wbuf.U16(1)
	c.wbuf.U8(wire.TagLong)
	c.wbuf.I64(key)
	_, err := c.nc.Write(c.wbuf.Bytes())
	return err
}

func (c *rawClient) readResult() (uint32, error) {
	typ, payload, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	if typ != wire.MsgOK {
		return 0, errFrame(typ, payload)
	}
	r := wire.NewReader(payload)
	return r.U32(), r.Err
}

func (c *rawClient) execWait(id, procID uint32, part int, key int64) error {
	if err := c.exec(id, procID, part, key); err != nil {
		return err
	}
	_, err := c.readResult()
	return err
}

// BenchmarkServeLoopbackShards4 drives a 4-shard single-engine oltpd with a
// pipelined window spread across every shard, so all four shard workers
// group-execute concurrently on the one simulated machine (the concurrent
// engine mode): the multi-core serving configuration FigS3 sweeps.
func BenchmarkServeLoopbackShards4(b *testing.B) {
	s, err := New(Config{
		System: systems.VoltDB,
		Shards: 4,
		Spec:   workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if !s.Engine().Concurrent() {
		b.Fatal("4-shard VoltDB server is not in concurrent mode")
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()

	nc, err := dialRaw(s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.nc.Close()
	procID, err := nc.prepare("micro_ro")
	if err != nil {
		b.Fatal(err)
	}

	const window = 16 // 4 in flight per shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		n := window
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			part := (i + j) % 4
			key := int64(4*((i+j)%1000) + part)
			if err := nc.exec(uint32(i+j), procID, part, key); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			if _, err := nc.readResult(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
