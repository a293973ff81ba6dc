//go:build linux

package main

import (
	"bufio"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"triadtime"
	"triadtime/internal/wire"
)

// roleEnv marks a re-executed benchmark binary as the live server.
const roleEnv = "TRIADBENCH_ROLE"

// Server identities. The node seals client responses as
// [nodeID, nodeID+shards+sockets); every generator flow seals from
// genIdentBase upwards, so no two sealers under one client key share a
// nonce space.
const (
	nodeID       = triadtime.NodeID(1)
	authorityID  = triadtime.NodeID(100)
	genIdentBase = 1 << 20
)

// calibSleeps is the node's calibration ladder: the serving path is
// the same as with triad-node's default {0, 1s}, and set-up takes
// under a second instead of four.
var calibSleeps = []time.Duration{0, 200 * time.Millisecond}

// childConfig is what the parent sends the server on its standard
// input: fresh keys for every incarnation.
type childConfig struct {
	ClusterKey []byte `json:"cluster_key"`
	ClientKey  []byte `json:"client_key"`
	TSAKey     []byte `json:"tsa_key,omitempty"`
	Anchor     string `json:"anchor,omitempty"`
	// TraceOut, when set, makes the server the traced one: it hosts
	// the instrumented serving loop and writes its spans here.
	TraceOut string `json:"trace_out,omitempty"`
	// PinCPU, when set, is the CPU the server pins itself to.
	PinCPU *int `json:"pin_cpu,omitempty"`
}

// freshConfig draws an incarnation's keys and, if asked, creates an
// anchor location under dir.
func freshConfig(dir string, withTSA, withAnchor bool) (childConfig, error) {
	cfg := childConfig{ClusterKey: freshKey(), ClientKey: freshKey()}
	if withTSA {
		cfg.TSAKey = freshKey()
	}
	if withAnchor {
		d, err := os.MkdirTemp(dir, "anchor-")
		if err != nil {
			return cfg, err
		}
		cfg.Anchor = filepath.Join(d, "anchor")
	}
	return cfg, nil
}

// removeAnchor deletes an anchor location freshConfig created.
func removeAnchor(anchor string) {
	if anchor != "" {
		os.RemoveAll(filepath.Dir(anchor))
	}
}

func freshKey() []byte {
	k := make([]byte, wire.KeySize)
	if _, err := rand.Read(k); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return k
}

// startTimeNode starts a Time Authority and a node calibrating
// against it, with no AEX injection.
func startTimeNode(cfg childConfig) (*triadtime.AuthorityServer, *triadtime.LiveNode, error) {
	ta, err := triadtime.NewAuthorityServer("127.0.0.1:0", cfg.ClusterKey, authorityID)
	if err != nil {
		return nil, nil, err
	}
	node, err := triadtime.NewLiveNode(triadtime.LiveConfig{
		Key:         cfg.ClusterKey,
		ID:          nodeID,
		Listen:      "127.0.0.1:0",
		Directory:   map[triadtime.NodeID]string{authorityID: ta.LocalAddr().String()},
		Authority:   authorityID,
		CalibSleeps: calibSleeps,
	})
	if err != nil {
		ta.Close()
		return nil, nil, err
	}
	return ta, node, nil
}

// startNode brings up what `triad-node -serve` deploys: a Time
// Authority and a calibrated node serving clients on one UDP socket
// with 4 shards, a 1ms tick, no rate limit and no AEX injection.
func startNode(cfg childConfig) (*triadtime.AuthorityServer, *triadtime.LiveNode, net.Addr, error) {
	ta, node, err := startTimeNode(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	addr, err := node.ServeClients(triadtime.ClientServeConfig{
		Listen:       "127.0.0.1:0",
		Key:          cfg.ClientKey,
		TSAKey:       cfg.TSAKey,
		CommitAnchor: cfg.Anchor,
	})
	if err != nil {
		node.Close()
		ta.Close()
		return nil, nil, nil, err
	}
	return ta, node, addr, nil
}

// serveChildMain is the server process: it reads its config line,
// starts the node, prints "serve <addr>", answers "cpu" with its own
// CPU time in nanoseconds, and shuts down when its input closes.
func serveChildMain(in io.Reader, out io.Writer) error {
	br := bufio.NewReader(in)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read config: %w", err)
	}
	var cfg childConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if cfg.PinCPU != nil {
		if err := pinServer(*cfg.PinCPU); err != nil {
			return err
		}
	}
	if cfg.TraceOut != "" {
		return tracedChildMain(cfg, br, out)
	}
	ta, node, addr, err := startNode(cfg)
	if err != nil {
		return err
	}
	defer ta.Close()
	defer node.Close()
	fmt.Fprintf(out, "serve %s\n", addr)
	for {
		cmd, err := br.ReadString('\n')
		if err != nil {
			return nil // parent closed our input: shut down
		}
		if strings.TrimSpace(cmd) == "cpu" {
			fmt.Fprintf(out, "cpu %d\n", processCPU().Nanoseconds())
		}
	}
}

// serverProc is the parent's handle on one server incarnation.
type serverProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Reader
	addr    *net.UDPAddr
	cfg     childConfig
	started time.Time
	stopped bool
}

// startServer launches a server incarnation with fresh keys (and, for
// commit, a fresh anchor under dir). It returns once the server has
// bound its serving socket; calibration is still running.
func startServer(dir string, withTSA, withAnchor bool, traceOut string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg, err := freshConfig(dir, withTSA, withAnchor)
	if err != nil {
		return nil, err
	}
	cfg.TraceOut = traceOut
	if serverCPU >= 0 {
		cpu := serverCPU
		cfg.PinCPU = &cpu
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=server")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), cfg: cfg, started: time.Now()}
	if err := cmd.Start(); err != nil {
		removeAnchor(cfg.Anchor)
		return nil, fmt.Errorf("start server: %w", err)
	}
	line, _ := json.Marshal(cfg)
	if _, err := fmt.Fprintf(stdin, "%s\n", line); err != nil {
		s.stop()
		return nil, fmt.Errorf("configure server: %w", err)
	}
	reply, err := s.stdout.ReadString('\n')
	addrStr, ok := strings.CutPrefix(strings.TrimSpace(reply), "serve ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("server did not start (%q): %v", reply, err)
	}
	if s.addr, err = net.ResolveUDPAddr("udp", addrStr); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// call sends the server one command line and returns the rest of
// its reply line, which must start with want.
func (s *serverProc) call(cmd, want string) (string, error) {
	if _, err := io.WriteString(s.stdin, cmd+"\n"); err != nil {
		return "", err
	}
	reply, err := s.stdout.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("server reply to %.20q: %w", cmd, err)
	}
	reply = strings.TrimSpace(reply)
	if reply == want {
		return "", nil
	}
	v, ok := strings.CutPrefix(reply, want+" ")
	if !ok {
		return "", fmt.Errorf("server reply to %.20q: %s", cmd, reply)
	}
	return v, nil
}

// callJSON is call with a JSON reply decoded into v.
func (s *serverProc) callJSON(cmd, want string, v any) error {
	r, err := s.call(cmd, want)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(r), v)
}

// cpu asks the server for its user+system CPU time so far.
func (s *serverProc) cpu() (time.Duration, error) {
	v, err := s.call("cpu", "cpu")
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(v, 10, 64)
	return time.Duration(ns), err
}

// stop closes the server's input, waits for it to exit (killing it
// after 10s), removes its anchor, and returns its peak RSS.
func (s *serverProc) stop() (float64, error) {
	if s.stopped {
		return 0, nil
	}
	s.stopped = true
	s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		err = errors.Join(errors.New("server did not exit; killed"), <-done)
	}
	removeAnchor(s.cfg.Anchor)
	var rss float64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rss, err
}
