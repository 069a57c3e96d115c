package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scrape is one GET /metrics exposition: sample value by series key, the
// key being the metric name followed by its rendered label set, exactly as
// the exposition prints it (disclosure_wal_commit_seconds_sum,
// disclosure_http_request_seconds_count{route="POST /v1/submit"}).
type scrape map[string]float64

// fetchMetrics scrapes base's /metrics with the admin token.
func fetchMetrics(base string) (scrape, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// diff is the change of one series between two scrapes.
func diff(before, after scrape, key string) float64 { return after[key] - before[key] }

// histMean is the mean observation of a histogram series between two
// scrapes, in microseconds, and the number of observations it averages.
// labels is the rendered label set without braces ("" for none).
func histMean(before, after scrape, name, labels string) (us float64, n float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	n = diff(before, after, name+"_count"+suffix)
	if n == 0 {
		return 0, 0
	}
	return diff(before, after, name+"_sum"+suffix) / n * 1e6, n
}

// dirBytes sums the sizes of the regular files under dir (0 for "").
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// environment is the stamp every result carries.
type environment struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPU         string `json:"cpu_model"`
	Go          string `json:"go_version"`
	Commit      string `json:"commit"`
	DataDirFS   string `json:"data_dir_fs"`
	Fsync       bool   `json:"fsync"`
	GroupCommit bool   `json:"group_commit"`
	Shards      int    `json:"shards"`
	Clients     int    `json:"clients"`
}

func stampEnvironment(cfg config) environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		DataDirFS:  "none (in-memory)",
		Clients:    cfg.clients,
	}
	if cfg.spec.durable {
		env.DataDirFS = fsType(cfg.dir)
		env.Fsync = !durability.NoSync
		env.GroupCommit = !durability.NoGroupCommit
		env.Shards = durability.Shards
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision the binary was built
// from, or, in a checkout without version control, a digest of the Go
// sources and module files under the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if n := e.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// percentile is the nearest-rank q-quantile of d in milliseconds; d is
// sorted in place.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := int(q*float64(len(d))+0.5) - 1
	rank = max(0, min(rank, len(d)-1))
	return float64(d[rank]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
