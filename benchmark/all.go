package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSet is what `benchmark all` writes and `benchmark compare` reads: one
// complete set of runs, every workload untraced then traced.
type runSet struct {
	Host      hostFacts              `json:"host"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]workloadSet `json:"workloads"`
}

type workloadSet struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// cmdAll runs every workload as a child process of its own (so peak_rss_mb is
// per workload), first with the span recorder off, then traced.
func cmdAll(args []string) int {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "length of each measured window")
	smoke := fs.Bool("smoke", false, "tiny sizes: shape and correctness only")
	out := fs.String("out", "", "write the run set (JSON) here, for `benchmark compare`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := runSet{Host: readHostFacts(), Seed: *seed, Seconds: *seconds, Workloads: make(map[string]workloadSet)}
	code := 0
	for _, w := range workloads {
		var ws workloadSet
		for trace, dst := range []*result{&ws.EndToEnd, &ws.PerLayer} {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"--smoke="+strconv.FormatBool(*smoke))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout) //nolint:errcheck // progress output only
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], dst); jerr != nil && err == nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): no result line: %v\n", w.name, trace, jerr)
				code = 1
			}
		}
		set.Workloads[w.name] = ws
	}
	if *out != "" {
		buf, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*out, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
