// Static experiments: configuration tables and frequency curves that read
// the calibrated timing model directly (paper Tables 1-5 and Figures 2-4)
// plus the benchmark-suite listings (Tables 6-8).
package experiment

import (
	"fmt"

	"gals/internal/core"
	"gals/internal/timing"
	"gals/internal/workload"
)

// Table1 regenerates paper Table 1: the joint L1-D/L2 configurations.
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "L1 data and L2 cache configurations",
		Header: []string{"L1-D size", "assoc", "L1 sub-banks (adapt)", "L1 sub-banks (opt)", "L2 size", "L2 sub-banks (adapt)", "L2 sub-banks (opt)"},
	}
	for _, c := range timing.DCacheConfigs() {
		s := c.Spec()
		t.AddRow(
			fmt.Sprintf("%d KB", s.L1SizeKB), s.Assoc,
			s.L1SubBanksAdapt, s.L1SubBanksOpt,
			fmt.Sprintf("%d KB", s.L2SizeKB),
			s.L2SubBanksAdapt, s.L2SubBanksOpt,
		)
	}
	t.Notes = append(t.Notes,
		"sub-bank organizations follow the paper exactly: each adaptive way replicates the base way's banking")
	return t
}

// Figure2 regenerates paper Figure 2: D-cache/L2 frequency versus
// configuration, adaptive and optimal organizations.
func Figure2() *Table {
	t := &Table{
		ID:     "figure2",
		Title:  "D-cache/L2 frequency versus configuration (GHz)",
		Header: []string{"configuration", "adaptive GHz", "optimal GHz", "optimal/adaptive"},
	}
	for _, c := range timing.DCacheConfigs() {
		s := c.Spec()
		t.AddRow(s.Name, s.AdaptMHz/1000, s.OptimalMHz/1000, s.OptimalMHz/s.AdaptMHz)
	}
	t.Notes = append(t.Notes,
		"paper: ~1.8 GHz at the base configuration falling below 0.8 GHz at 256k8W; optimal a few percent faster when upsized")
	return t
}

// Table2 regenerates paper Table 2: adaptive I-cache / branch predictor
// configurations.
func Table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Adaptive instruction cache / branch predictor configurations",
		Header: []string{"size", "assoc", "sub-banks", "hg", "gshare PHT", "meta", "hl", "local BHT", "local PHT"},
	}
	for _, c := range timing.ICacheConfigs() {
		s := c.Spec()
		bp := s.BPred
		t.AddRow(fmt.Sprintf("%d KB", s.SizeKB), s.Assoc, s.SubBanks,
			fmt.Sprintf("%d bits", bp.GShareBits), bp.GShareEntries, bp.MetaEntries,
			fmt.Sprintf("%d bits", bp.LocalBits), bp.LocalBHTEntries, bp.LocalPHTEntries)
	}
	return t
}

// Table3 regenerates paper Table 3: the optimized I-cache / predictor
// organizations available to the fully synchronous design space.
func Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Optimized instruction cache / branch predictor configurations",
		Header: []string{"size", "assoc", "sub-banks", "hg", "gshare PHT", "meta", "hl", "local BHT", "local PHT"},
	}
	for _, s := range timing.SyncICacheSpecs() {
		bp := s.BPred
		t.AddRow(fmt.Sprintf("%d KB", s.SizeKB), s.Assoc, s.SubBanks,
			fmt.Sprintf("%d bits", bp.GShareBits), bp.GShareEntries, bp.MetaEntries,
			fmt.Sprintf("%d bits", bp.LocalBits), bp.LocalBHTEntries, bp.LocalPHTEntries)
	}
	return t
}

// Figure3 regenerates paper Figure 3: I-cache frequency versus size for the
// adaptive and the optimal direct-mapped organizations.
func Figure3() *Table {
	t := &Table{
		ID:     "figure3",
		Title:  "I-cache frequency versus configuration (GHz)",
		Header: []string{"size", "adaptive (cfg)", "adaptive GHz", "optimal (DM)", "optimal GHz"},
	}
	optNames := []string{"16k1W", "32k1W", "48k3W", "64k1W"}
	for i, c := range timing.ICacheConfigs() {
		s := c.Spec()
		idx, _ := timing.SyncICacheIndexByName(optNames[i])
		opt := timing.SyncICacheSpecAt(idx)
		t.AddRow(fmt.Sprintf("%d KB", s.SizeKB), s.Name, s.AdaptMHz/1000, opt.Name, opt.MHz/1000)
	}
	a := timing.ICache16K1W.Spec().AdaptMHz
	b := timing.ICache32K2W.Spec().AdaptMHz
	t.Notes = append(t.Notes,
		fmt.Sprintf("direct-mapped to 2-way frequency drop: %.0f%% (paper: ~31%%)", (1-b/a)*100))
	i64, _ := timing.SyncICacheIndexByName("64k1W")
	opt64 := timing.SyncICacheSpecAt(i64).MHz
	ad64 := timing.ICache64K4W.Spec().AdaptMHz
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal 64KB DM is %.0f%% faster than adaptive 64KB 4-way (paper: 27%%)", (opt64/ad64-1)*100))
	return t
}

// Figure4 regenerates paper Figure 4: issue queue frequency versus size,
// for every size from 16 to 64 entries in steps of 4.
func Figure4() *Table {
	t := &Table{
		ID:     "figure4",
		Title:  "Issue queue frequency versus size (GHz)",
		Header: []string{"entries", "GHz", "selection levels"},
	}
	for n := 16; n <= 64; n += 4 {
		levels := 2
		if n > 16 {
			levels = 3
		}
		t.AddRow(n, timing.IQFreqMHz(n)/1000, levels)
	}
	t.Notes = append(t.Notes,
		"the log4 selection tree gains a third level beyond 16 entries, producing the paper's frequency cliff")
	return t
}

// table4Component is one row of the paper's hardware-cost estimate.
type table4Component struct {
	name    string
	count   int
	width   int // bits
	perBit  int // equivalent gates per bit
	formula string
}

// Table4 regenerates paper Table 4: the gate-count estimate of the
// Phase-Adaptive cache control hardware (per adaptable cache pair).
func Table4() *Table {
	comps := []table4Component{
		{"24 MRU and Hit Counters (15-bit)", 24, 15, 7, "3n (HA) + 4n (DFF) = 7n"},
		{"11 Adders (15-bit)", 11, 15, 7, "7n (FA) = 7n"},
		{"2 8x28-bit Multipliers (36-bit result)", 2, 36, 5, "1n (Mult) + 4n (DFF) = 5n"},
		{"1 Final Adder (36-bit)", 1, 36, 7, "7n (FA) = 7n"},
		{"Result Register (36-bit)", 1, 36, 4, "4n (DFF) = 4n"},
		{"Comparator (36-bit)", 1, 36, 6, "6n (Comparator) = 6n"},
	}
	t := &Table{
		ID:     "table4",
		Title:  "Phase-Adaptive cache control hardware estimate (per cache pair)",
		Header: []string{"component", "estimate", "equivalent gates"},
	}
	total := 0
	for _, c := range comps {
		gates := c.count * c.width * c.perBit
		total += gates
		t.AddRow(c.name, c.formula+" each", gates)
	}
	t.AddRow("Total", "", total)
	t.Notes = append(t.Notes, "paper total: 4,647 equivalent gates")
	return t
}

// Table5 regenerates paper Table 5: the simulated machine parameters.
func Table5() *Table {
	t := &Table{
		ID:     "table5",
		Title:  "Architectural parameters for the simulated processor",
		Header: []string{"parameter", "value"},
	}
	d := timing.DCache32K1W.Spec()
	rows := [][2]string{
		{"Fetch queue", fmt.Sprintf("%d entries", core.FetchQueueEntries)},
		{"Branch mispredict penalty", fmt.Sprintf("%d front-end + %d integer cycles (%d + %d for adaptive MCD)",
			core.SyncMispredictFE, core.SyncMispredictInt, core.AdaptMispredictFE, core.AdaptMispredictInt)},
		{"Decode, issue, retire widths", fmt.Sprintf("%d, %d, %d instructions", core.DecodeWidth, core.IssueWidth, core.RetireWidth)},
		{"L1 cache latency (I and D)", "2/8, 2/5, 2/2 or 2/- cycles for A and B partitions"},
		{"L2 cache latency", fmt.Sprintf("%d/43, %d/27, %d/12 or %d/- cycles", d.L2ALat, d.L2ALat, d.L2ALat, d.L2ALat)},
		{"Memory latency", "80 ns (first access), 2 ns (subsequent)"},
		{"Integer ALUs", fmt.Sprintf("%d + %d mult/div unit", core.IntALUs, core.IntMulDivs)},
		{"FP ALUs", fmt.Sprintf("%d + %d mult/div/sqrt unit", core.FPALUs, core.FPMulDivs)},
		{"Load/store queue", fmt.Sprintf("%d entries", core.LSQEntries)},
		{"Physical register file", fmt.Sprintf("%d integer, %d FP", core.PhysIntRegs, core.PhysFPRegs)},
		{"Reorder buffer", fmt.Sprintf("%d entries", core.ROBEntries)},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// Benchmarks regenerates Tables 6-8: the benchmark runs of a suite family
// ("MediaBench", "Olden", or the prefix "SPEC2000").
func Benchmarks(family string) *Table {
	id := map[string]string{"MediaBench": "table6", "Olden": "table7", "SPEC2000": "table8"}[family]
	t := &Table{
		ID:     id,
		Title:  family + " benchmark applications (synthetic workload models)",
		Header: []string{"benchmark", "suite", "paper window", "code KB", "hot code KB", "data KB", "FP frac"},
	}
	for _, s := range workload.Suite() {
		if family == "SPEC2000" {
			if s.Suite != "SPEC2000-Int" && s.Suite != "SPEC2000-FP" {
				continue
			}
		} else if s.Suite != family {
			continue
		}
		p := s.Base
		t.AddRow(s.Name, s.Suite, s.Window, p.CodeKB, p.HotKB, p.DataKB, p.FPFrac)
	}
	t.Notes = append(t.Notes,
		"windows are the paper's; this reproduction replays deterministic synthetic models of each run (see DESIGN.md)")
	return t
}
