package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// committedDigests is testdata/digests.json: for each workload and seed,
// the SHA-256 of the check set's fingerprints. The binary carries it, so
// the check holds wherever the benchmark runs.
//
//go:embed testdata/digests.json
var committedDigests []byte

// digestFile maps workload → seed → digest.
type digestFile map[string]map[string]string

// digestSeeds are the seeds testdata/digests.json covers: the default seed
// and the held-out one.
var digestSeeds = []int64{1, 2}

// digestPath is where --update writes, relative to the repository root.
const digestPath = "benchmark/testdata/digests.json"

// digestOf hashes fingerprints in order, one per line.
func digestOf(fps []string) string {
	h := sha256.New()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// committedDigest returns the committed digest for a workload and seed, if
// there is one.
func committedDigest(workload string, seed int64) (string, bool, error) {
	var f digestFile
	if err := json.Unmarshal(committedDigests, &f); err != nil {
		return "", false, fmt.Errorf("testdata/digests.json: %w", err)
	}
	d, ok := f[workload][strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// updateDigests reruns every workload's check set at the digest seeds and
// rewrites the digest file. A check set whose reference path disagrees is
// an error, never a new digest.
func updateDigests() error {
	f := digestFile{}
	for _, w := range workloads {
		f[w.name] = map[string]string{}
		for _, seed := range digestSeeds {
			res, err := w.run(runConfig{seed: seed, short: true, setupReps: 1}, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if res.refErr != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, res.refErr)
			}
			f[w.name][strconv.FormatInt(seed, 10)] = digestOf(res.check)
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(data, '\n'), 0o644)
}
