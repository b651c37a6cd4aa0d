package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the code, toolchain and machine a result
// came from, so results from different machines or code are never
// compared by mistake.
type fingerprint struct {
	GitSHA string `json:"git_sha"`
	// SourceSHA256 digests the checkout's Go sources and module files;
	// unlike GitSHA it is known in checkouts that are not repositories.
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
}

func takeFingerprint(o options) fingerprint {
	return fingerprint{
		GitSHA:       o.gitSHA,
		SourceSHA256: sourceDigest(o.root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Workload:     o.workload,
		Seed:         o.seed,
		Trace:        o.trace,
	}
}

// sourceDigest hashes the path and content of every .go, go.mod and
// .sh file under root, skipping dot directories (.git, .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".sh") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor model name on Linux; "unknown"
// elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
