package galsim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
)

// Sample is one interval snapshot of the machine's internal state (see
// Options.SampleInterval): cumulative progress plus interval-rate signals —
// per-domain IPC, issue-queue occupancy, inter-domain FIFO depths, stall
// deltas and the DVFS slowdown trajectory.
type Sample = pipeline.Sample

// DomainSample is one clock domain's slice of a Sample.
type DomainSample = pipeline.DomainSample

// StallSample is the machine-wide stall-counter delta of one Sample.
type StallSample = pipeline.StallSample

// Progress is a batch progress snapshot delivered to a ProgressFunc:
// completed, failed and cache-served unit counts out of Total.
type Progress = campaign.Progress

// ProgressFunc receives progress snapshots during RunManyProgress. It is
// called from worker goroutines and must be safe for concurrent use.
type ProgressFunc = campaign.ProgressFunc

// WriteSamplesCSV writes an interval sample series as CSV: one row per
// sample, with global columns first, then per-domain column groups in
// pipeline order (prefixed with the domain name), then the stall deltas.
// The layout matches `galsim -sample -sample-format csv`.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	header := []string{"cycle", "time_ns", "committed", "ipc"}
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		name := d.String()
		header = append(header,
			name+"_cycles", name+"_slowdown", name+"_ipc",
			name+"_iq_len", name+"_iq_occ", name+"_fifo_depth")
	}
	header = append(header,
		"stall_fetch_icache", "stall_fetch_link_full", "stall_rename_dispatch",
		"stall_complete_backpressure", "stall_loads_blocked")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("galsim: writing sample CSV: %w", err)
	}
	row := make([]string, 0, len(header))
	for _, s := range samples {
		row = row[:0]
		row = append(row,
			strconv.FormatUint(s.Cycle, 10),
			strconv.FormatFloat(s.TimeNs, 'g', -1, 64),
			strconv.FormatUint(s.Committed, 10),
			strconv.FormatFloat(s.IPC, 'g', -1, 64))
		for _, ds := range s.Domains {
			row = append(row,
				strconv.FormatUint(ds.Cycles, 10),
				strconv.FormatFloat(ds.Slowdown, 'g', -1, 64),
				strconv.FormatFloat(ds.IPC, 'g', -1, 64),
				strconv.Itoa(ds.IQLen),
				strconv.FormatFloat(ds.IQOcc, 'g', -1, 64),
				strconv.Itoa(ds.FIFODepth))
		}
		row = append(row,
			strconv.FormatUint(s.Stalls.FetchICache, 10),
			strconv.FormatUint(s.Stalls.FetchLinkFull, 10),
			strconv.FormatUint(s.Stalls.RenameDispatchFull, 10),
			strconv.FormatUint(s.Stalls.CompleteBackpressure, 10),
			strconv.FormatUint(s.Stalls.LoadsBlockedByStores, 10))
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("galsim: writing sample CSV: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("galsim: writing sample CSV: %w", err)
	}
	return nil
}
