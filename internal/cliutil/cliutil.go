// Package cliutil holds the small helpers shared by the command-line
// tools.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"gcsim/internal/cache"
)

// ParseSize parses a byte size in the paper's notation: a plain number,
// or a number suffixed with k (KiB) or m (MiB) — e.g. "64k", "1m".
func ParseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "m")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 64k, 1m)", s)
	}
	return n * mult, nil
}

// ParseSizeList parses a comma-separated list of sizes ("32k,64k,1m").
func ParseSizeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := ParseSize(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseIntList parses a comma-separated list of positive integers
// ("16,64,256").
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad number %q in list %q", part, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseConfigs expands the comma-separated size/block/policy lists into
// the cross product of cache configurations, in list order (policy, then
// size, then block). The policy list may also be "both".
func ParseConfigs(sizes, blocks, policies string) ([]cache.Config, error) {
	sizeList, err := ParseSizeList(sizes)
	if err != nil {
		return nil, err
	}
	blockList, err := ParseIntList(blocks)
	if err != nil {
		return nil, err
	}
	var polList []cache.WritePolicy
	if policies == "both" {
		polList = []cache.WritePolicy{cache.WriteValidate, cache.FetchOnWrite}
	} else {
		for _, p := range strings.Split(policies, ",") {
			pol, err := cache.ParsePolicy(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			polList = append(polList, pol)
		}
	}
	var cfgs []cache.Config
	for _, pol := range polList {
		for _, size := range sizeList {
			for _, block := range blockList {
				cfg := cache.Config{SizeBytes: size, BlockBytes: block, Policy: pol}
				if err := cfg.Validate(); err != nil {
					return nil, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}
