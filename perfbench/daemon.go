package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// daemon is one qmkpd process the benchmark spawned on a loopback port.
// Its standard output and error go to a log file in the work directory;
// the runtime's GC trace (GODEBUG=gctrace=1) in that log is how the
// benchmark sees the daemon's allocation, which /debug/vars does not
// expose.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    string
	client *http.Client
}

// spawnDaemon starts bin and waits until /healthz answers. The returned
// duration runs from process start to the first healthy answer.
func spawnDaemon(bin, work string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, 0, fmt.Errorf("free port %s: %w", addr, err)
	}
	logPath := work + "/qmkpd.log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		log:  logPath,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			_ = d.stop() // already failing; the health error is the one to report
			return nil, 0, fmt.Errorf("qmkpd at %s not healthy within 10s: %v", d.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnMeasured spawns setupRepeats daemons one after another, stops all
// but the last, and returns it with every spawn-to-healthy time.
func spawnMeasured(bin, work string) (*daemon, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		d, t, err := spawnDaemon(bin, work)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if i == setupRepeats-1 {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// stop asks the daemon to drain (SIGINT) and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("signal qmkpd: %w", err)
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("qmkpd exit: %w", err)
	}
	return nil
}

// post sends one JSON request and decodes the result. A 408 carries the
// best answer found before the deadline and is returned like a 200.
func (d *daemon) post(body []byte) (*api.SolveResult, time.Duration, error) {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	res, err := api.DecodeSolveResult(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusRequestTimeout {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, res.Error)
	}
	return res, lat, nil
}

// stream sends one streaming request and reads the event feed to its
// final frame. first is the time to the first frame carrying a feasible
// size (greedy seed, incumbent or final).
func (d *daemon) stream(body []byte) (res *api.SolveResult, first, lat time.Duration, err error) {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		ev, err := api.DecodeEvent([]byte(data))
		if err != nil {
			return nil, 0, 0, err
		}
		switch ev.Type {
		case api.EventGreedySeed, api.EventIncumbent, api.EventFinal:
			if first == 0 && ev.Size > 0 {
				first = time.Since(start)
			}
		}
		if ev.Type == api.EventFinal {
			if ev.Result == nil {
				return nil, 0, 0, fmt.Errorf("final frame without a result")
			}
			return ev.Result, first, time.Since(start), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("read stream: %w", err)
	}
	return nil, 0, 0, fmt.Errorf("stream ended without a final frame")
}

// vars reads the daemon's counters from /debug/vars.
func (d *daemon) vars() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("debug vars: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("debug vars: %w", err)
	}
	return doc.Counters, nil
}

// peakRSSMB is the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// gcHeap matches the heap sizes of one gctrace line:
// "…, 4->5->2 MB, …" is the heap at GC start, at GC end, and live after.
var gcHeap = regexp.MustCompile(`^gc \d+ .* (\d+)->(\d+)->(\d+) MB`)

// gcCycle is one completed GC cycle of the daemon: the heap at its end
// and the live heap it left, in MB.
type gcCycle struct{ end, live float64 }

// gcCycles parses the daemon's GC trace so far.
func (d *daemon) gcCycles() ([]gcCycle, error) {
	data, err := os.ReadFile(d.log)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	var out []gcCycle
	for _, line := range strings.Split(string(data), "\n") {
		m := gcHeap.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		end, _ := strconv.ParseFloat(m[2], 64)  // matched \d+
		live, _ := strconv.ParseFloat(m[3], 64) // matched \d+
		out = append(out, gcCycle{end: end, live: live})
	}
	return out, nil
}

// allocBetween estimates the MB the daemon allocated between two reads of
// its GC trace: each cycle ending in the window contributes its end-of-GC
// heap minus the live heap the cycle before it left.
func allocBetween(before, after []gcCycle) float64 {
	sum := 0.0
	for i := len(before); i < len(after); i++ {
		prev := 0.0
		if i > 0 {
			prev = after[i-1].live
		}
		sum += after[i].end - prev
	}
	return sum
}

// peakRSSMB reads VmHWM from a /proc status file.
func peakRSSMB(status string) (float64, error) {
	data, err := os.ReadFile(status)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in %s", status)
}
