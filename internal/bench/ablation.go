package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/segstore"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// The ablations quantify the design choices DESIGN.md calls out beyond the
// paper's own figures: the placement favoritism α, the replication degree's
// cost under lazy propagation, and delta vs whole-segment replica sync.

// AblationResult is one knob's sweep.
type AblationResult struct {
	Name   string
	Rows   []AblationRow
	Metric string
}

// AblationRow is one setting's measurement.
type AblationRow struct {
	Setting string
	Value   float64
}

// Report prints the sweep.
func (r *AblationResult) Report(w io.Writer) {
	fmt.Fprintf(w, "Ablation: %s (%s)\n", r.Name, r.Metric)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-24s %10.2f\n", row.Setting, row.Value)
	}
}

// RunAlphaAblation sweeps the placement favoritism α on the crawler
// workload: α=0 weighs storage space only, α=1 load only (paper §3.7.1).
// Lower final unevenness is better for this space-skewed workload.
func RunAlphaAblation(scale Scale) (*AblationResult, error) {
	scale = scale.withDefaults()
	res := &AblationResult{Name: "placement favoritism α (crawler workload)", Metric: "storage unevenness, lower=better"}
	for _, alpha := range []float64{0, 0.5, 1} {
		row, err := alphaVariant(scale, alpha)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{Setting: fmt.Sprintf("alpha=%.1f", alpha), Value: row})
	}
	return res, nil
}

func alphaVariant(scale Scale, alpha float64) (float64, error) {
	p := Fig14Params{
		Scale:             scale,
		Crawlers:          12,
		DomainsPerCrawler: 8,
		TotalBytes:        58 << 30,
		DiskCapacity:      31 << 30,
		Duration:          2 * time.Hour,
		Variants:          []string{"sorrento-space"},
	}.withDefaults()
	// Reuse the fig14 machinery with a custom α by running the space
	// variant and overriding the attrs through a dedicated variant hook.
	row, err := fig14VariantWithAlpha("sorrento-space", p, alpha)
	if err != nil {
		return 0, err
	}
	return row.Unevenness, nil
}

// RunReplicationAblation measures small-file write latency and unlink
// latency as the replication degree grows: lazy propagation keeps writes
// nearly flat while eager removal makes unlink scale with the degree
// (paper §4.1.1).
func RunReplicationAblation(scale Scale) (*AblationResult, error) {
	if scale.Time <= 0 {
		scale.Time = 0.1
	}
	scale.Data = 1
	res := &AblationResult{Name: "replication degree (small-file ops)", Metric: "ms per op (write / unlink)"}
	for _, repl := range []int{1, 2, 3} {
		sys := fmt.Sprintf("sorrento-(8,%d)", repl)
		out, err := RunFig9(Fig9Params{Scale: scale, Ops: 10, Systems: []string{sys}})
		if err != nil {
			return nil, err
		}
		r := out.Rows[0]
		res.Rows = append(res.Rows,
			AblationRow{Setting: fmt.Sprintf("repl=%d write", repl), Value: r.WriteMs},
			AblationRow{Setting: fmt.Sprintf("repl=%d unlink", repl), Value: r.UnlinkMs},
		)
	}
	return res, nil
}

// RunDeltaSyncAblation compares the bytes a stale replica transfers to
// catch up using delta sync (this implementation's §3.6 "retrieve the
// updates") versus whole-segment transfers, across update patterns.
func RunDeltaSyncAblation() (*AblationResult, error) {
	res := &AblationResult{Name: "replica sync transfer cost", Metric: "bytes moved to sync one stale replica"}
	const segSize = 4 << 20
	for _, pattern := range []struct {
		name   string
		writes int
		wsize  int
	}{
		{"1 x 64KB update", 1, 64 << 10},
		{"8 x 64KB updates", 8, 64 << 10},
		{"1 x 1MB update", 1, 1 << 20},
	} {
		clock := simtime.NewClock(0.0001)
		st := segstore.New(clock, disk.New(clock, "a", disk.SCSI10K(), 1<<30))
		seg := ids.New()
		if err := st.Create(seg, make([]byte, segSize), 1, 0, false); err != nil {
			return nil, err
		}
		for w := 0; w < pattern.writes; w++ {
			if _, _, err := st.Shadow("w", seg, 0, time.Minute, 1, 0); err != nil {
				return nil, err
			}
			off := int64(w*pattern.wsize) % (segSize - int64(pattern.wsize))
			if _, err := st.WriteShadow("w", seg, off, make([]byte, pattern.wsize)); err != nil {
				return nil, err
			}
			if _, _, err := st.Prepare("w", seg); err != nil {
				return nil, err
			}
			if _, _, err := st.CommitPrepared("w", seg); err != nil {
				return nil, err
			}
		}
		r, err := st.Fetch(seg, 0, 1)
		if err != nil {
			return nil, err
		}
		deltaBytes := int64(len(r.Data))
		for _, c := range r.Ranges {
			deltaBytes += int64(len(c.Data))
		}
		res.Rows = append(res.Rows,
			AblationRow{Setting: pattern.name + " (delta)", Value: float64(deltaBytes)},
			AblationRow{Setting: pattern.name + " (full)", Value: float64(segSize)},
		)
	}
	return res, nil
}

// fig14VariantWithAlpha is fig14Variant with an explicit α (the ablation
// hook).
func fig14VariantWithAlpha(variant string, p Fig14Params, alpha float64) (Fig14Row, error) {
	row, err := fig14VariantAttrs(variant, p, func(attrs *wire.FileAttrs) {
		attrs.Alpha = alpha
		attrs.Policy = wire.PlaceLoadAware
	})
	if err != nil {
		return Fig14Row{}, err
	}
	return row, nil
}
