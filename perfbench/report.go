package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported figure with the sample it was taken from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Kind is "wall" (wall-clock time or rate), "simulated" (virtual
	// clock), "count" (exact, repeats run to run) or "memory".
	Kind   string  `json:"kind"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// metrics is a run's named figures.
type metrics map[string]metric

// sample records a metric whose value is a statistic of samples.
func (m metrics) sample(name, unit, kind string, value float64, samples []float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m[name] = metric{Value: value, Unit: unit, Kind: kind, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// median records the median of samples.
func (m metrics) median(name, unit, kind string, samples []float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m.sample(name, unit, kind, quantile(s, 0.5), s)
}

// exact records a single exact figure.
func (m metrics) exact(name, unit, kind string, v float64) {
	m[name] = metric{Value: v, Unit: unit, Kind: kind, N: 1, Median: v, Q1: v, Q3: v}
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// percentile returns the q-quantile of an unsorted sample.
func percentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, q)
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host describes where and on what code a result was measured.
type host struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeHost(root string) host {
	return host{
		GoVersion:    goruntime.Version(),
		GOMAXPROCS:   goruntime.GOMAXPROCS(0),
		NProc:        goruntime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory, when there
// is one; source_sha256 identifies the code either way.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
