package bench

import (
	"fmt"

	"github.com/mdz/mdz/internal/codec"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/gen"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/metrics"
	"github.com/mdz/mdz/internal/sz2"
)

func init() {
	register("tab4", "SZ2 compression ratios in 1D vs 2D mode", runTab4)
	register("tab5", "lossless compressor ratios on MD data", runTab5)
	register("fig12", "lossy compression ratios across datasets and BS", runFig12)
	register("fig13", "rate-distortion (bit rate vs PSNR)", runFig13)
	register("tab6", "MaxError and NRMSE at CR=10 (Copper-B)", runTab6)
	register("fig14", "RDF fidelity at CR=10 (Copper-B)", runFig14)
	register("fig15", "compression/decompression throughput", runFig15)
	register("fig16", "generalizability: HACC cosmology datasets", runFig16)
}

// runTab4 reproduces Table IV: SZ2's 2D mode vs 1D mode on Pt, LJ and
// Helium-A (BS=10, ε=1E-3), per axis.
func runTab4(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "tab4", Title: Title("tab4"),
		Columns: []string{"dataset", "mode", "x", "y", "z"},
		Notes: []string{
			"paper Table IV: 2D mode reaches up to ~200% higher CR by using space and time at once",
		},
	}
	for _, name := range []string{"Pt", "LJ", "Helium-A"} {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, mode := range []sz2.Mode{sz2.Mode1D, sz2.Mode2D} {
			f := codec.FromBatch(&sz2.Compressor{Mode: mode})
			res, err := RunCodec(d, f, RunOptions{Epsilon: 1e-3, BufferSize: 10})
			if err != nil {
				return nil, err
			}
			rep.AddRow(name, mode.String(), res.PerAxisCR[0], res.PerAxisCR[1], res.PerAxisCR[2])
		}
	}
	return rep, nil
}

// runTab5 reproduces Table V: the six lossless compressors all land in the
// ~1-2x regime on MD floating-point data.
func runTab5(cfg Config) (*Report, error) {
	comps := []lossless.FloatCompressor{
		lossless.FloatAdapter{B: lossless.LZ{}},                              // Zstd stand-in
		lossless.FloatAdapter{B: lossless.Zlib{}},                            // Zlib (exact)
		lossless.FloatAdapter{B: lossless.Flate{Level: 9, Label: "brotli*"}}, // Brotli stand-in
		lossless.FPZip{},
		lossless.FPC{},
		lossless.ZFP{},
	}
	rep := &Report{
		ID: "tab5", Title: Title("tab5"),
		Columns: []string{"dataset", "zstd*", "zlib", "brotli*", "fpzip*", "fpc", "zfp*"},
		Notes: []string{
			"paper Table V: all lossless CRs are ~1-2 on MD floats (random mantissa bits)",
			"* marks stdlib-constrained stand-ins; see DESIGN.md section 5",
		},
	}
	for _, name := range []string{"Copper-A", "Helium-B", "ADK", "LJ"} {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		// Concatenate all axes, frame-major, as the paper's file layout.
		var flat []float64
		for _, fr := range d.Frames {
			flat = append(flat, fr.X...)
			flat = append(flat, fr.Y...)
			flat = append(flat, fr.Z...)
		}
		raw := int64(len(flat) * 8)
		for _, c := range comps {
			blob, err := c.CompressFloats(flat)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.Name(), name, err)
			}
			row = append(row, metrics.CompressionRatio(raw, int64(len(blob))))
		}
		rep.AddRow(row...)
	}
	return rep, nil
}

// runFig12 reproduces Fig 12: compression ratios of MDZ and the six lossy
// baselines across all eight datasets and buffer sizes.
func runFig12(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig12", Title: Title("fig12"),
		Columns: []string{"dataset", "BS", "MDZ", "SZ2-2D", "ASN", "TNG", "HRTC", "MDB", "LFZip", "MDZ/2nd"},
		Notes: []string{
			"paper Fig 12: MDZ highest CR on all datasets and buffer sizes (eps=1E-3)",
			"'excl' reproduces the paper's TNG/HRTC runtime exceptions at original scale",
		},
	}
	bss := []int{10, 50, 100}
	if cfg.scale() < 1 {
		bss = []int{10}
	}
	order := []string{"MDZ", "SZ2-2D", "ASN", "TNG", "HRTC", "MDB", "LFZip"}
	for _, name := range gen.MDNames() {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, bs := range bss {
			crs := map[string]float64{}
			excluded := map[string]bool{}
			for _, f := range codec.AllLossy() {
				res, err := RunCodec(d, f, RunOptions{Epsilon: 1e-3, BufferSize: bs})
				if err != nil {
					return nil, err
				}
				crs[f.Name()] = res.CR
				excluded[f.Name()] = res.Excluded
			}
			row := []interface{}{name, bs}
			second := 0.0
			for _, cn := range order {
				if excluded[cn] {
					row = append(row, "excl")
					continue
				}
				row = append(row, crs[cn])
				if cn != "MDZ" && crs[cn] > second {
					second = crs[cn]
				}
			}
			ratio := 0.0
			if second > 0 {
				ratio = crs["MDZ"] / second
			}
			row = append(row, ratio)
			rep.AddRow(row...)
		}
	}
	return rep, nil
}

// fig13Sets are the rate-distortion datasets; trimmed at small scale.
func fig13Sets(cfg Config) []string {
	if cfg.scale() < 1 {
		return []string{"Copper-B", "LJ"}
	}
	return []string{"Copper-B", "Helium-B", "Pt", "LJ"}
}

// runFig13 reproduces Fig 13: bit rate vs PSNR across an ε sweep for every
// lossy compressor.
func runFig13(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig13", Title: Title("fig13"),
		Columns: []string{"dataset", "codec", "eps", "bitRate", "PSNR"},
		Notes: []string{
			"paper Fig 13: MDZ dominates the rate-distortion frontier (higher PSNR at equal bit rate)",
		},
	}
	epss := []float64{1e-2, 1e-3, 1e-4}
	if cfg.scale() >= 1 {
		epss = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}
	}
	for _, name := range fig13Sets(cfg) {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, f := range codec.AllLossy() {
			if Excluded(f.Name(), d.Meta) {
				rep.AddRow(name, f.Name(), "-", "excl", "excl")
				continue
			}
			for _, eps := range epss {
				res, err := RunCodec(d, f, RunOptions{Epsilon: eps, BufferSize: 10})
				if err != nil {
					return nil, err
				}
				rep.AddRow(name, f.Name(), fmt.Sprintf("%.0e", eps), res.BitRate, res.Err.PSNR)
			}
		}
	}
	return rep, nil
}

// runTab6 reproduces Table VI: at a matched CR of 10 on Copper-B, compare
// MaxError and NRMSE per axis across compressors, including the individual
// MDZ methods.
func runTab6(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "tab6", Title: Title("tab6"),
		Columns: []string{"codec", "axis", "CR", "MaxError", "NRMSE"},
		Notes: []string{
			"paper Table VI: MDZ(ADP) has the lowest MaxError and NRMSE on every axis at CR=10",
			"MDB excluded: it cannot reach CR 10 (paper §VII-C3)",
		},
	}
	d, err := load("Copper-B", cfg)
	if err != nil {
		return nil, err
	}
	facs := []codec.Factory{
		codec.MDZFactory{},
		codec.MDZFactory{Method: core.VQ},
		codec.MDZFactory{Method: core.VQT},
		codec.MDZFactory{Method: core.MT},
	}
	for _, f := range codec.Baselines() {
		if f.Name() == "MDB" {
			continue // cannot reach CR 10, as in the paper
		}
		facs = append(facs, f)
	}
	for _, f := range facs {
		if Excluded(f.Name(), d.Meta) {
			rep.AddRow(f.Name(), "-", "excl", "excl", "excl")
			continue
		}
		_, res, err := SearchEpsilonForCR(d, f, 10, 10)
		if err != nil {
			return nil, err
		}
		for ai, axis := range dataset.Axes {
			rep.AddRow(f.Name(), axis.String(), res.CR, res.PerAxisErr[ai].MaxError, res.PerAxisErr[ai].NRMSE)
		}
	}
	return rep, nil
}

// runFig14 reproduces Fig 14: RDFs of decompressed Copper-B at CR≈10,
// scored by mean |Δg(r)| against the original RDF.
func runFig14(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig14", Title: Title("fig14"),
		Columns: []string{"codec", "CR", "rdfError", "faithful?"},
		Notes: []string{
			"paper Fig 14: only MDZ preserves the radial distribution function at CR=10",
			"rdfError is mean |g_orig(r) - g_decomp(r)| over the last frame",
		},
	}
	d, err := load("Copper-B", cfg)
	if err != nil {
		return nil, err
	}
	box := d.Meta.Box
	if box <= 0 {
		return nil, fmt.Errorf("fig14: dataset has no periodic box")
	}
	last := d.Frames[d.M()-1]
	rMax := box / 2
	bins := 60
	_, gOrig, err := metrics.RDF(last.X, last.Y, last.Z, box, rMax, bins)
	if err != nil {
		return nil, err
	}
	facs := append([]codec.Factory{codec.MDZFactory{}}, codec.Baselines()...)
	for _, f := range facs {
		if f.Name() == "MDB" {
			rep.AddRow(f.Name(), "n/a", "cannot reach CR 10", "-")
			continue
		}
		if Excluded(f.Name(), d.Meta) {
			rep.AddRow(f.Name(), "excl", "excl", "-")
			continue
		}
		_, res, err := SearchEpsilonForCR(d, f, 10, 10)
		if err != nil {
			return nil, err
		}
		rl := res.Recon[len(res.Recon)-1]
		_, gDec, err := metrics.RDF(rl.X, rl.Y, rl.Z, box, rMax, bins)
		if err != nil {
			return nil, err
		}
		dist, err := metrics.RDFDistance(gOrig, gDec)
		if err != nil {
			return nil, err
		}
		faithful := "no"
		if dist < 0.05 {
			faithful = "yes"
		}
		rep.AddRow(f.Name(), res.CR, dist, faithful)
	}
	return rep, nil
}

// runFig15 reproduces Fig 15: compression and decompression throughput of
// every lossy compressor on every dataset.
func runFig15(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig15", Title: Title("fig15"),
		Columns: []string{"dataset", "codec", "compMBps", "decompMBps"},
		Notes: []string{
			"paper Fig 15: MDZ is consistently among the fastest; LFZip is slowest",
		},
	}
	sets := []string{"Copper-B", "Helium-B", "Pt", "LJ"}
	if cfg.scale() < 1 {
		sets = []string{"Copper-B", "LJ"}
	}
	for _, name := range sets {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, f := range codec.AllLossy() {
			if Excluded(f.Name(), d.Meta) {
				rep.AddRow(name, f.Name(), "excl", "excl")
				continue
			}
			res, err := RunCodec(d, f, RunOptions{Epsilon: 1e-3, BufferSize: 10})
			if err != nil {
				return nil, err
			}
			rep.AddRow(name, f.Name(), res.EncodeMBps, res.DecodeMBps)
		}
	}
	return rep, nil
}

// runFig16 reproduces Fig 16: compression ratios on the HACC cosmology
// analogs, demonstrating generalizability beyond MD.
func runFig16(cfg Config) (*Report, error) {
	rep := &Report{
		ID: "fig16", Title: Title("fig16"),
		Columns: []string{"dataset", "MDZ", "SZ2-2D", "ASN", "TNG", "HRTC", "MDB", "LFZip", "MDZ/2nd"},
		Notes: []string{
			"paper Fig 16: MDZ best on both HACC datasets, 30-56% over the second best (eps=1E-3)",
			"HACC originals exceed both TNG and HRTC limits -> excl",
		},
	}
	order := []string{"MDZ", "SZ2-2D", "ASN", "TNG", "HRTC", "MDB", "LFZip"}
	for _, name := range []string{"HACC-1", "HACC-2"} {
		d, err := load(name, cfg)
		if err != nil {
			return nil, err
		}
		crs := map[string]float64{}
		excluded := map[string]bool{}
		for _, f := range codec.AllLossy() {
			res, err := RunCodec(d, f, RunOptions{Epsilon: 1e-3, BufferSize: 10})
			if err != nil {
				return nil, err
			}
			crs[f.Name()] = res.CR
			excluded[f.Name()] = res.Excluded
		}
		row := []interface{}{name}
		second := 0.0
		for _, cn := range order {
			if excluded[cn] {
				row = append(row, "excl")
				continue
			}
			row = append(row, crs[cn])
			if cn != "MDZ" && crs[cn] > second {
				second = crs[cn]
			}
		}
		ratio := 0.0
		if second > 0 {
			ratio = crs["MDZ"] / second
		}
		row = append(row, ratio)
		rep.AddRow(row...)
	}
	return rep, nil
}
