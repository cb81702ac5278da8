package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"oltpsim/internal/metrics"
)

// TestSmoke is the end-to-end gate of the serving path: it builds oltpd and
// oltpdrive (race-instrumented when the test is), starts every node of a
// row on free loopback ports, drives a burst with oltpdrive -json, scrapes
// each node's /metrics, and SIGTERM-drains the nodes, which must exit 0.
// Rows: one node serving the hybrid workload over two shards, and two
// nodes sharing a range:2x4 shard map under a 20% multi-partition (2PC)
// mix. The binaries are built from source the test cache does not track,
// so run it with -count=1 after changing them:
//
//	go test -count=1 -run 'TestSmoke/serve' -v ./cmd/oltpdrive
//	go test -count=1 -race -run 'TestSmoke/cluster' -v ./cmd/oltpdrive
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the oltpd and oltpdrive binaries")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go toolchain on PATH: %v", err)
	}
	bin := t.TempDir()
	for _, cmd := range []string{"oltpd", "oltpdrive"} {
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", filepath.Join(bin, cmd), "oltpsim/cmd/"+cmd)
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}

	micro := []string{"-workload", "micro", "-rows", "100000", "-rw"}
	for _, row := range []struct {
		name  string
		nodes [][]string // oltpd flags, one entry per node
		drive []string   // oltpdrive flags besides the node addresses
		// shards lists, per node, the shards that must have committed
		// transactions and report a p99 service latency.
		shards [][]string
		twoPC  bool // assert a 2PC mix: commits on every node, no aborts
	}{
		{
			name: "serve",
			nodes: [][]string{{"-system", "voltdb", "-shards", "2", "-sockets", "2", "-placement", "partitioned",
				"-workload", "hybrid", "-warehouses", "2"}},
			drive:  []string{"-workload", "hybrid", "-warehouses", "2"},
			shards: [][]string{{"0", "1"}},
		},
		{
			name: "cluster",
			nodes: [][]string{
				append([]string{"-system", "voltdb", "-cluster", "range:2x4", "-node", "0"}, micro...),
				append([]string{"-system", "voltdb", "-cluster", "range:2x4", "-node", "1"}, micro...),
			},
			drive:  append([]string{"-cluster", "range:2x4", "-mp", "20"}, micro...),
			shards: [][]string{{"0", "1"}, {"2", "3"}},
			twoPC:  true,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			var addrs, metricsURLs []string
			var nodes []*exec.Cmd
			for _, flags := range row.nodes {
				cmd, addr, url := startNode(t, filepath.Join(bin, "oltpd"), flags)
				nodes = append(nodes, cmd)
				addrs = append(addrs, addr)
				metricsURLs = append(metricsURLs, url)
			}

			args := append([]string{"-conns", "4", "-warmup", "200ms", "-duration", "1s", "-json"}, row.drive...)
			if len(addrs) == 1 {
				args = append(args, "-addr", addrs[0])
			} else {
				args = append(args, "-addrs", strings.Join(addrs, ","))
			}
			out, err := exec.Command(filepath.Join(bin, "oltpdrive"), args...).Output()
			if err != nil {
				t.Fatalf("oltpdrive: %v\n%s", err, out)
			}
			var rep struct {
				Ops, Errors, MultiPart uint64
				P50Ns, P99Ns           int64
			}
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatalf("report: %v\n%s", err, out)
			}
			t.Logf("%d ops, %d 2PC commits, p99 %v", rep.Ops, rep.MultiPart, time.Duration(rep.P99Ns))
			if rep.Ops == 0 || rep.Errors != 0 {
				t.Fatalf("ops=%d errors=%d, want ops and zero errors", rep.Ops, rep.Errors)
			}
			if rep.P50Ns <= 0 || rep.P50Ns > rep.P99Ns {
				t.Fatalf("driver quantiles not sane: p50=%d p99=%d", rep.P50Ns, rep.P99Ns)
			}
			if row.twoPC && rep.MultiPart == 0 {
				t.Fatal("no multi-partition transactions committed")
			}

			for i, url := range metricsURLs {
				m := scrape(t, url)
				for _, sh := range row.shards[i] {
					if m[`oltpd_tx_total{shard="`+sh+`"}`] <= 0 {
						t.Errorf("node %d shard %s committed no transactions", i, sh)
					}
					if m[`oltpd_request_seconds{shard="`+sh+`",quantile="0.99"}`] <= 0 {
						t.Errorf("node %d shard %s p99 missing", i, sh)
					}
				}
				if row.twoPC {
					// The proof the multi-partition traffic crossed the node
					// boundary: every node prepared and committed branches.
					for _, fam := range []string{"oltpd_2pc_prepares_total", "oltpd_2pc_commits_total"} {
						if familySum(m, fam) <= 0 {
							t.Errorf("node %d: %s is zero", i, fam)
						}
					}
					if n := familySum(m, "oltpd_2pc_aborts_total"); n != 0 {
						t.Errorf("node %d: %.0f unexpected 2PC aborts", i, n)
					}
				}
			}

			// Graceful drain: SIGTERM must exit 0 on every node.
			for _, cmd := range nodes {
				cmd.Process.Signal(syscall.SIGTERM)
			}
			for i, cmd := range nodes {
				if err := cmd.Wait(); err != nil {
					t.Errorf("node %d after SIGTERM: %v", i, err)
				}
			}
		})
	}
}

var (
	servingLine = regexp.MustCompile(`^oltpd: serving \S+ on (\S+) `)
	metricsLine = regexp.MustCompile(`^oltpd: metrics at (\S+)$`)
)

// startNode runs oltpd on free loopback ports and waits until it has
// printed the addresses it bound. The process is killed at cleanup unless
// the test already reaped it.
func startNode(t *testing.T, path string, flags []string) (cmd *exec.Cmd, addr, metricsURL string) {
	t.Helper()
	cmd = exec.Command(path, append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, flags...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	lines := bufio.NewScanner(stdout)
	for (addr == "" || metricsURL == "") && lines.Scan() {
		if m := servingLine.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
		if m := metricsLine.FindStringSubmatch(lines.Text()); m != nil {
			metricsURL = m[1]
		}
	}
	if addr == "" || metricsURL == "" {
		t.Fatalf("oltpd %v exited before printing its addresses", flags)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained until exit
	return cmd, addr, metricsURL
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m, err := metrics.Parse(string(body))
	if err != nil {
		t.Fatalf("parse %s: %v", url, err)
	}
	return m
}

// familySum adds every labelled sample of a metric family.
func familySum(m map[string]float64, family string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}
