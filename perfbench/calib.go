package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The shared machine a benchmark runs on changes speed by tens of percent
// over minutes: a fixed CPU loop timed second by second on a 2-vCPU
// virtual machine read between 341 and 669 iterations per second within
// 150 s, and at times the machine stops running the process altogether
// (steal time). A timing taken at one moment and compared with one taken
// minutes later measures the machine as much as the program. So every run
// also times a fixed reference task, the calibration kernel, in short
// bursts spread over the run (one before every set-up, every measurement
// window and every recovery, and one after the last of each), and
// reports each timing scaled to the speed at which the machine ran the
// kernel during the run (see speeds). The raw figures and the kernel's
// figures are printed beside them.
//
// The kernel runs in a child process, so its heap, its garbage collector
// and its code are independent of the program under test: a change of
// the program cannot move the kernel's rate. Each iteration is a
// loopback HTTP round trip whose handler decodes a JSON body, builds and
// sorts a map of strings and hashes it, sent by two closed-loop clients,
// the same kinds of work as the serving stack under the benchmark's load.

// calibrationRef and calibrationRefCPU are the kernel rate, in
// iterations per second, and its processor time per iteration, in
// microseconds, that the reported figures are scaled to: about those of a
// 2-vCPU Intel Xeon virtual machine, so the scaled figures read close to
// the raw ones there.
const (
	calibrationRef    = 8000.0
	calibrationRefCPU = 250.0
)

// calibrationBurst is the length of one burst of the kernel.
const calibrationBurst = 300 * time.Millisecond

// calibrationEnv marks the child process that runs the kernel.
const calibrationEnv = "PERFBENCH_CALIBRATION_KERNEL"

// calibrator drives the kernel's child process. A nil calibrator does
// nothing, and its speeds are 1.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	// rates and cpus are the counted bursts' iterations per second and
	// processor microseconds per iteration.
	rates, cpus []float64
}

// newCalibrator starts the kernel's child process (this executable, with
// calibrationEnv set) and warms it up with one burst it does not count.
func newCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibrationEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, _, err := c.run(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// run asks the child for one burst and returns its rate and processor
// time per iteration.
func (c *calibrator) run() (rate, cpu float64, err error) {
	if _, err := fmt.Fprintf(c.in, "%d\n", calibrationBurst.Microseconds()); err != nil {
		return 0, 0, fmt.Errorf("calibration kernel: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("calibration kernel: %w", err)
	}
	if n, err := fmt.Sscan(line, &rate, &cpu); n != 2 || err != nil || rate <= 0 || cpu <= 0 {
		return 0, 0, fmt.Errorf("calibration kernel answered %q", line)
	}
	return rate, cpu, nil
}

// burst runs one counted burst. The caller makes sure the program under
// test is idle meanwhile; burst first completes any garbage collection
// the program started, so no collection of the program's heap competes
// with the kernel for the processors.
func (c *calibrator) burst() error {
	if c == nil {
		return nil
	}
	runtime.GC()
	rate, cpu, err := c.run()
	if err != nil {
		return err
	}
	c.rates = append(c.rates, rate)
	c.cpus = append(c.cpus, cpu)
	return nil
}

// speeds are how fast the machine ran the kernel over the run's bursts,
// relative to the reference; both are 1 on a nil calibrator or before the
// first burst.
//
//   - speed is the median burst rate over calibrationRef. It counts every
//     way the machine slows a process down, including time it does not
//     run the process at all, as a throughput, a step of seconds under
//     load or a request that does 10 ms of work sees it. Such times are
//     scaled by multiplying with it, throughputs by dividing.
//   - cpuSpeed is calibrationRefCPU over the median processor time per
//     kernel iteration: how fast the machine executes instructions while
//     it runs them. It sets a processor time, the median latency of short
//     requests (a pause of the whole machine delays only the few requests
//     in flight during it) and the time of a step of one thread's work.
//     Those are scaled by multiplying with it.
//
// The run's median, not a phase's, is taken: a phase has too few bursts
// for a steady median.
func (c *calibrator) speeds() (speed, cpuSpeed float64) {
	if c == nil || len(c.rates) == 0 {
		return 1, 1
	}
	return median(c.rates) / calibrationRef, calibrationRefCPU / median(c.cpus)
}

// close ends the child process and waits for it.
func (c *calibrator) close() {
	if c == nil {
		return
	}
	_ = c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		_ = c.cmd.Process.Kill()
	}
}

// calibrationKernel is the child process: it serves the kernel on a
// loopback port and, for every burst length in microseconds read from
// standard input, runs two closed-loop clients for that long and prints
// their iterations per second and the process's processor microseconds
// per iteration. It returns when standard input closes.
func calibrationKernel() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: calibration kernel:", err)
		return 1
	}
	srv := &http.Server{Handler: http.HandlerFunc(kernelHandler), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	url := "http://" + l.Addr().String()
	clients := []*http.Client{newHTTPClient(), newHTTPClient()}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		us, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: calibration kernel: bad burst", sc.Text())
			return 1
		}
		cpu0 := cpuTime()
		n, secs, err := kernelBurst(url, clients, time.Duration(us)*time.Microsecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: calibration kernel:", err)
			return 1
		}
		fmt.Println(float64(n)/secs, float64(cpuTime()-cpu0)/1e3/float64(n))
	}
	return 0
}

// kernelRequest is the body of one kernel iteration.
type kernelRequest struct {
	Seq   int      `json:"seq"`
	Words []string `json:"words"`
}

var kernelWords = strings.Fields("views partitions wall friend likes photo album status comment tag event group page user post share")

// kernelBurst runs the clients against the kernel's server for d and
// returns the number of round trips completed and the seconds they took.
func kernelBurst(url string, clients []*http.Client, d time.Duration) (int64, float64, error) {
	var n atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	t0 := time.Now()
	deadline := t0.Add(d)
	for c, hc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := c; time.Now().Before(deadline); seq += len(clients) {
				body, _ := json.Marshal(kernelRequest{Seq: seq % 64, Words: kernelWords})
				resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs[c] = err
					return
				}
				var out map[string]string
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || len(out["sum"]) != 64 {
					errs[c] = fmt.Errorf("bad answer (%v)", err)
					return
				}
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if n.Load() == 0 {
		return 0, 0, fmt.Errorf("no round trip completed in %s", d)
	}
	return n.Load(), time.Since(t0).Seconds(), nil
}

// kernelHandler is one kernel iteration on the server side.
func kernelHandler(w http.ResponseWriter, r *http.Request) {
	var req kernelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m := make(map[string]int)
	for i := 0; i < 400; i++ {
		m[req.Words[(i+req.Seq)%len(req.Words)]+strconv.Itoa(i%97)] += i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, ",")))
	_ = json.NewEncoder(w).Encode(map[string]string{"sum": hex.EncodeToString(sum[:])})
}
