package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/tracered"
)

// committedDigests holds the SHA-256 of every exact-mode output the
// workloads produce, keyed by catalogKey and matcherKey.
//
//go:embed digests.json
var committedDigests []byte

// checker verifies outputs against the committed digests.
type checker struct {
	want   map[string]string
	mutate func([]byte) // see config.mutate
}

func newChecker(cfg *config) (*checker, error) {
	c := &checker{mutate: cfg.mutate}
	if err := json.Unmarshal(committedDigests, &c.want); err != nil {
		return nil, fmt.Errorf("reading the committed digests: %w", err)
	}
	return c, nil
}

// verify checks out against the committed digest for key.
func (c *checker) verify(key string, out []byte) error {
	if c.mutate != nil {
		c.mutate(out)
	}
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest", key)
	}
	if got := hexDigest(out); got != want {
		return fmt.Errorf("%s: output digest %.12s, committed %.12s", key, got, want)
	}
	return nil
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeDigests regenerates the digest file with the sequential reference
// engine (ReduceSequential, then a one-worker encode), independent of the
// pipelined path the workloads measure.
func writeDigests(path string) error {
	want := map[string]string{}
	add := func(t *tracered.Trace, method string, key func(tracered.Format) string, formats ...tracered.Format) error {
		m, err := tracered.DefaultMethod(method)
		if err != nil {
			return err
		}
		red, err := tracered.ReduceSequential(t, m)
		if err != nil {
			return err
		}
		for _, f := range formats {
			var b bytes.Buffer
			if err := tracered.WriteReducedFormatWith(&b, red, f, tracered.EncoderOptions{Workers: 1}); err != nil {
				return err
			}
			want[key(f)] = hexDigest(b.Bytes())
		}
		return nil
	}
	for variant := range catalogVariants {
		ins, err := buildCatalog(tracered.WorkloadNames(), variant)
		if err != nil {
			return err
		}
		for _, in := range ins {
			for _, method := range tracered.MethodNames {
				key := func(f tracered.Format) string { return catalogKey(in, method, f) }
				if err := add(in.trace, method, key, tracered.FormatV1, tracered.FormatV2); err != nil {
					return err
				}
			}
		}
	}
	for order := range matcherOrders {
		t := matcherTrace(order)
		for _, method := range tracered.MethodNames {
			key := func(tracered.Format) string { return matcherKey(order, method) }
			if err := add(t, method, key, tracered.FormatV2); err != nil {
				return err
			}
		}
	}
	buf, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
