package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"sync"
)

//go:embed digests.json
var committedJSON []byte

// folder folds a job's simulated results into an FNV-64a digest.
type folder struct {
	h   hash.Hash64
	buf [8]byte
}

func newFolder() *folder { return &folder{h: fnv.New64a()} }

func (f *folder) add(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], v)
		f.h.Write(f.buf[:])
	}
}

func (f *folder) sum() uint64 { return f.h.Sum64() }

// checker validates every executed job's output digest against the
// committed digest of its job label, and a job that repeats in a later
// cycle also against its first execution.
type checker struct {
	committed map[string]string
	mu        sync.Mutex
	first     map[string]uint64
	order     []string
}

// newChecker loads the committed digests of one workload.
func newChecker(workload string) (*checker, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(committedJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &checker{committed: all[workload], first: make(map[string]uint64)}, nil
}

// check returns an error when the digest d of the job labelled label
// disagrees with the committed digest or with the job's first run. Every
// run is compared with the committed digest, so a systematic change of
// results fails every job that shows it, not only each job's first run.
func (c *checker) check(label string, d uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.first[label]
	if !seen {
		c.first[label] = d
		c.order = append(c.order, label)
	}
	want, ok := c.committed[label]
	switch w, err := strconv.ParseUint(want, 0, 64); {
	case !ok:
		return fmt.Errorf("%s: no committed digest", label)
	case err != nil || w != d:
		return fmt.Errorf("%s: digest %#x, committed %s", label, d, want)
	case seen && prev != d:
		return fmt.Errorf("%s: digest %#x differs from its first run %#x", label, d, prev)
	}
	return nil
}

// table returns the digests seen this run, for refreshing digests.json.
func (c *checker) table() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.first))
	for _, l := range c.order {
		out[l] = fmt.Sprintf("%#016x", c.first[l])
	}
	return out
}

// countsDigest folds outcome counts in outcome order.
func countsDigest(counts []int) uint64 {
	f := newFolder()
	for _, n := range counts {
		f.add(uint64(n))
	}
	return f.sum()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printDigestTable writes the run's per-job digests to standard error
// when PERFBENCH_PRINT_DIGESTS is set, for refreshing digests.json.
func printDigestTable(c *checker) {
	if os.Getenv("PERFBENCH_PRINT_DIGESTS") == "" {
		return
	}
	for _, l := range sortedKeys(c.table()) {
		fmt.Fprintf(os.Stderr, "digest %q: %q,\n", l, c.table()[l])
	}
}
