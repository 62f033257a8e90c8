package bench

import (
	"github.com/mdz/mdz/internal/codec"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/gen"
	"github.com/mdz/mdz/internal/quant"
)

func init() {
	register("fig10", "per-batch CR of VQ/VQT/MT/ADP over the run", runFig10)
	register("fig11", "ADP vs VQ/VQT/MT compression ratios across datasets and BS", runFig11)
}

// runFig10 tracks per-batch compression ratios over a long run, showing
// that the best method changes over time and ADP follows it (paper Fig 10).
func runFig10(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig10", Title: Title("fig10"),
		Columns: []string{"dataset", "batchWindow", "VQ", "VQT", "MT", "ADP"},
		Notes: []string{
			"paper Fig 10: ADP tracks the best of the three across the run (BS=10)",
			"cells are window-averaged per-batch CRs over the x axis",
		},
	}
	for _, name := range []string{"Helium-B", "Copper-B"} {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		series := d.AxisSeries(dataset.AxisX)
		lo, hi := seriesRange(series)
		eb := quant.AbsBound(1e-3, lo, hi)
		bs := 10
		nBatches := (len(series) + bs - 1) / bs
		// Collect per-batch CRs for each method.
		perMethod := map[string][]float64{}
		for _, m := range []core.Method{core.VQ, core.VQT, core.MT, core.ADP} {
			f := codec.MDZFactory{Method: m, AdaptInterval: 5}
			stream, err := f.New(eb)
			if err != nil {
				return nil, err
			}
			var crs []float64
			for start := 0; start < len(series); start += bs {
				end := start + bs
				if end > len(series) {
					end = len(series)
				}
				blk, err := stream.Encode(series[start:end])
				if err != nil {
					return nil, err
				}
				raw := (end - start) * d.N() * 8
				crs = append(crs, float64(raw)/float64(len(blk)))
			}
			perMethod[m.String()] = crs
		}
		// Report in 4 windows across the run.
		windows := 4
		for w := 0; w < windows; w++ {
			loB := w * nBatches / windows
			hiB := (w + 1) * nBatches / windows
			if hiB <= loB {
				continue
			}
			row := []interface{}{name, windowLabel(w, windows)}
			for _, m := range []string{"VQ", "VQT", "MT", "ADP"} {
				row = append(row, mean(perMethod[m][loB:hiB]))
			}
			rep.AddRow(row...)
		}
	}
	return rep, nil
}

func windowLabel(w, total int) string {
	switch {
	case w == 0:
		return "first"
	case w == total-1:
		return "last"
	default:
		return "mid" + string(rune('0'+w))
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// runFig11 reproduces Fig 11: ADP has the highest CR among the MDZ methods
// on every dataset and buffer size.
func runFig11(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig11", Title: Title("fig11"),
		Columns: []string{"dataset", "BS", "VQ", "VQT", "MT", "ADP", "ADP>=best?"},
		Notes: []string{
			"paper Fig 11: ADP matches or exceeds the best single method everywhere (eps=1E-3)",
		},
	}
	bss := []int{10, 50, 100}
	if cfg.scale() < 1 {
		bss = []int{10, 50}
	}
	for _, name := range gen.MDNames() {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, bs := range bss {
			crs := map[string]float64{}
			for _, m := range []core.Method{core.VQ, core.VQT, core.MT, core.ADP} {
				f := codec.MDZFactory{Method: m, AdaptInterval: 5}
				res, err := RunCodec(d, f, RunOptions{Epsilon: 1e-3, BufferSize: bs})
				if err != nil {
					return nil, err
				}
				crs[m.String()] = res.CR
			}
			best := crs["VQ"]
			for _, m := range []string{"VQT", "MT"} {
				if crs[m] > best {
					best = crs[m]
				}
			}
			ok := "yes"
			if crs["ADP"] < 0.93*best {
				ok = "NO"
			}
			rep.AddRow(name, bs, crs["VQ"], crs["VQT"], crs["MT"], crs["ADP"], ok)
		}
	}
	return rep, nil
}
