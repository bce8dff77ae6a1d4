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
	"sort"
	"strconv"
	"strings"
)

// stamp identifies the code and machine a result was measured on. Wall
// times are comparable only between results with the same machine tag.
type stamp struct {
	Rev        string `json:"rev"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Machine    string `json:"machine"`
}

func newStamp(root string) stamp {
	return stamp{
		Rev:        sourceRev(root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Machine:    machineTag(),
	}
}

// sourceRev hashes the Go sources and module files under root, so a
// checkout without version-control metadata still names its code.
func sourceRev(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// machineTag names the host by CPU model, CPU count and memory size.
func machineTag() string {
	model := firstField("/proc/cpuinfo", "model name")
	if model == "" {
		model = runtime.GOARCH
	}
	mem := firstField("/proc/meminfo", "MemTotal")
	gib := ""
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(mem, " kB"), 64); err == nil {
		gib = "/" + strconv.Itoa(int(kb/(1<<20)+0.5)) + "GiB"
	}
	return strings.Join(strings.Fields(model), "-") + "/" + strconv.Itoa(runtime.NumCPU()) + "cpu" + gib
}

// firstField returns the value of the first "key: value" line of a
// /proc file, or "" when absent.
func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
