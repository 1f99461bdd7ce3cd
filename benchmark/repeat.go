package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is how the
// benchmark's acceptance check measures spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runRepeat runs two sets of n end-to-end passes of every workload, each
// pass a fresh process with its own seed, and prints per workload × metric
// each set's median, min, max, range ÷ median and quartile spread ÷ median,
// and how far the second median moved from the first. REPEATABILITY.md is
// this output.
func runRepeat(n int, seed uint64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	var order []key
	values := map[key][2][]float64{}
	for set := 0; set < 2; set++ {
		for pass := 0; pass < n; pass++ {
			for _, w := range workloadNames {
				s := seed + uint64(set*n+pass)
				cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, s, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res struct {
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: %w", w, s, err)
				}
				for name, m := range res.Metrics {
					k := key{w, name}
					v, seen := values[k]
					if !seen {
						order = append(order, k)
					}
					v[set] = append(v[set], m.Value)
					values[k] = v
				}
				fmt.Fprintf(os.Stderr, "set %d pass %d %s done\n", set+1, pass+1, w)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].metric < order[j].metric
	})
	fmt.Println("| workload | metric | set | median | min | max | range/median | IQR/median | median shift |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, k := range order {
		med0 := median(values[k][0])
		for set, vs := range values[k] {
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			med := median(s)
			q1, q3 := quartiles(s)
			shift := ""
			if set == 1 {
				shift = fmt.Sprintf("%+.2f%%", 100*(med-med0)/med0)
			}
			fmt.Printf("| %s | %s | %d | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %s |\n",
				k.workload, k.metric, set+1, med, s[0], s[len(s)-1],
				100*(s[len(s)-1]-s[0])/med, 100*(q3-q1)/med, shift)
		}
	}
	return nil
}
