// Command mdzc compresses and decompresses .mdzd trajectory files with MDZ.
//
// Usage:
//
//	mdzc -c traj.mdzd -o traj.mdz            # compress to a framed MDZ2 stream (eps=1E-3, BS=10)
//	mdzc -c traj.xyz  -o traj.mdz            # XYZ text trajectories work too
//	mdzc -c traj.mdzd -o traj.mdz -eps 1e-4 -bs 50 -method MT
//	mdzc -c traj.mdzd -o traj.mdz -checkpoint 8  # + a recovery checkpoint every 8 blocks
//	mdzc -c traj.mdzd -o traj.mdz -seek-index    # + a seek table for O(1) -range reads
//	mdzc -d traj.mdz -o restored.mdzd        # decompress (or -o restored.xyz)
//	mdzc -d traj.mdz -o restored.mdzd -salvage   # recover what a corrupt stream still holds
//	mdzc -d traj.mdz -o window.mdzd -range 100:200   # decode only snapshots [100, 200)
//	mdzc -index traj.mdz -o traj-indexed.mdz # retrofit a seek table onto a stream written without one
//	mdzc -fsck traj.mdz                      # verify framing + CRCs, report salvageable ranges
//	mdzc -info traj.mdz                      # stream statistics
//
// -c always writes the framed MDZ2 stream; -d, -info and -fsck also read
// the legacy containers earlier builds wrote.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/safeio"
)

// fileMagic leads an mdzc file. The payload after the metadata is an MDZ
// stream, which only the library's stream Reader parses: mdzc branches on
// no payload magic.
const fileMagic = "MDZC"

// cliFlags is the parsed command line, kept as a struct so flag-combination
// validation is testable apart from flag.Parse and os.Exit.
type cliFlags struct {
	compress, decompress, info, fsck string
	index                            string
	out, method                      string
	eps                              float64
	bs, checkpoint                   int
	workers, shards                  int
	salvage                          bool
	seekIndex                        bool
	rangeSpec                        string
	rangeLo, rangeHi                 int
	noFsync                          bool
	maxDecode                        int64

	metricsAddr, cpuprofile, memprofile, statsJSON string
}

// testOutputWrap, when non-nil, wraps the staged output writer of every
// safeio commit — the fault-injection seam the crash-consistency tests use
// to kill a write at an exact byte. Production runs leave it nil.
var testOutputWrap func(io.Writer) io.Writer

// validateFlags rejects meaningless flag combinations; any error is a usage
// error (exit code 2).
func validateFlags(f *cliFlags) error {
	modes := 0
	for _, m := range []string{f.compress, f.decompress, f.info, f.fsck, f.index} {
		if m != "" {
			modes++
		}
	}
	if modes == 0 {
		return fmt.Errorf("one of -c, -d, -info, -fsck, -index required (see -h)")
	}
	if modes > 1 {
		return fmt.Errorf("-c, -d, -info, -fsck and -index are mutually exclusive")
	}
	if f.index != "" && f.out == "" {
		return fmt.Errorf("-index writes the retrofitted stream to -o; add -o")
	}
	if f.rangeSpec != "" {
		if f.decompress == "" {
			return fmt.Errorf("-range selects snapshots to decompress; pair it with -d")
		}
		lo, hi, err := parseRange(f.rangeSpec)
		if err != nil {
			return err
		}
		f.rangeLo, f.rangeHi = lo, hi
	}
	if f.seekIndex && f.compress == "" {
		return fmt.Errorf("-seek-index embeds a seek table in the compressed stream; pair it with -c")
	}
	if f.salvage && f.decompress == "" {
		return fmt.Errorf("-salvage only applies to decompression; pair it with -d")
	}
	if f.checkpoint < 0 {
		return fmt.Errorf("-checkpoint must be non-negative, got %d", f.checkpoint)
	}
	if f.checkpoint != 0 && f.compress == "" {
		return fmt.Errorf("-checkpoint only applies to compression; pair it with -c")
	}
	if f.fsck != "" && f.out != "" {
		return fmt.Errorf("-fsck verifies in place and writes no output; drop -o")
	}
	if f.info != "" && f.out != "" {
		return fmt.Errorf("-info writes no output; drop -o")
	}
	if f.noFsync && f.compress == "" && f.decompress == "" && f.index == "" {
		return fmt.Errorf("-no-fsync only applies to commands that write output; pair it with -c, -d or -index")
	}
	if f.maxDecode < 0 {
		return fmt.Errorf("-max-decode must be non-negative, got %d", f.maxDecode)
	}
	if f.maxDecode != 0 && f.compress != "" {
		return fmt.Errorf("-max-decode bounds decoding; pair it with -d, -info or -fsck")
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", f.workers)
	}
	if f.shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", f.shards)
	}
	if f.shards != 0 && f.compress == "" {
		return fmt.Errorf("-shards shapes the compressed output; pair it with -c")
	}
	return nil
}

// parseRange parses a -range lo:hi snapshot window (half-open, 0-based).
func parseRange(spec string) (lo, hi int, err error) {
	if _, err := fmt.Sscanf(spec, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("-range wants lo:hi (half-open snapshot window), got %q", spec)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("-range wants 0 <= lo < hi, got %q", spec)
	}
	return lo, hi, nil
}

func main() {
	var f cliFlags
	flag.StringVar(&f.compress, "c", "", "compress: input .mdzd path")
	flag.StringVar(&f.decompress, "d", "", "decompress: input .mdz path")
	flag.StringVar(&f.info, "info", "", "print stream statistics for a .mdz path")
	flag.StringVar(&f.fsck, "fsck", "", "verify framing and checksums of a .mdz path, reporting salvageable ranges")
	flag.StringVar(&f.index, "index", "", "retrofit a seek table onto a framed .mdz path written without one (output via -o; frames are copied byte-for-byte)")
	flag.StringVar(&f.out, "o", "", "output path")
	flag.Float64Var(&f.eps, "eps", 1e-3, "value-range-based error bound")
	flag.IntVar(&f.bs, "bs", 10, "buffer size (snapshots per batch)")
	flag.StringVar(&f.method, "method", "ADP", "compression method: ADP, VQ, VQT, MT")
	flag.IntVar(&f.checkpoint, "checkpoint", 0, "with -c: embed a recovery checkpoint every N blocks, so -salvage resumes decoding after damage (0 = none)")
	flag.IntVar(&f.workers, "workers", 0, "goroutines for parallel kernels (0 = GOMAXPROCS, 1 = serial); output bytes never depend on it")
	flag.IntVar(&f.shards, "shards", 0, "with -c: contiguous particle shards per axis batch (0 = auto); part of the output format, so a fixed value pins output bytes across machines")
	flag.BoolVar(&f.salvage, "salvage", false, "with -d: recover everything readable from a corrupt stream instead of failing")
	flag.BoolVar(&f.seekIndex, "seek-index", false, "with -c: append a seek-table frame mapping snapshots to byte offsets, enabling O(1) -range reads")
	flag.StringVar(&f.rangeSpec, "range", "", "with -d: decode only the half-open snapshot window lo:hi (e.g. 100:200) instead of the whole stream; needs a framed input")
	flag.BoolVar(&f.noFsync, "no-fsync", false, "skip fsync when writing output: faster, but a machine crash can lose the file (the atomic temp-file+rename commit is kept either way)")
	flag.Int64Var(&f.maxDecode, "max-decode", 0, "with -d/-info/-fsck: cap decode-side memory driven by claimed sizes in the input, in bytes (0 = unlimited); over-budget inputs are rejected, not decoded")
	flag.StringVar(&f.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars and pprof /debug/pprof/ on this address while the command runs")
	flag.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this path on exit")
	flag.StringVar(&f.statsJSON, "stats-json", "", "write a machine-readable run report (stage timings, ADP decisions, scope rates) to this path, or - for stdout")
	flag.Parse()
	os.Exit(run(&f, os.Stderr))
}

// run executes a parsed command line, reporting failures on stderr, and
// returns the process exit code: 2 for a usage error, 1 for a failed
// command, 0 on success.
func run(f *cliFlags, stderr io.Writer) int {
	if err := validateFlags(f); err != nil {
		fmt.Fprintln(stderr, "mdzc:", err)
		return 2
	}
	o := &obs{metricsAddr: f.metricsAddr, cpuprofile: f.cpuprofile, memprofile: f.memprofile, statsJSON: f.statsJSON}
	if err := o.start(); err != nil {
		fmt.Fprintln(stderr, "mdzc:", err)
		return 1
	}
	var err error
	switch {
	case f.compress != "":
		err = doCompress(f, o)
	case f.decompress != "":
		err = doDecompress(f, o)
	case f.info != "":
		err = doInfo(f, o)
	case f.fsck != "":
		err = doFsck(f, o)
	case f.index != "":
		err = doIndex(f, o)
	}
	o.finish()
	if err != nil {
		fmt.Fprintln(stderr, "mdzc:", err)
		return 1
	}
	return 0
}

func doCompress(f *cliFlags, o *obs) error {
	in, out := f.compress, f.out
	if out == "" {
		return fmt.Errorf("-o required")
	}
	m, err := mdz.ParseMethod(f.method)
	if err != nil {
		return err
	}
	d, err := loadTrajectory(in)
	if err != nil {
		return err
	}
	frames := make([]mdz.Frame, d.M())
	for i, f := range d.Frames {
		frames[i] = mdz.Frame{X: f.X, Y: f.Y, Z: f.Z}
	}
	cfg := mdz.Config{
		ErrorBound: f.eps, Method: m, BufferSize: f.bs,
		CheckpointInterval: f.checkpoint, SeekIndex: f.seekIndex,
		Workers: f.workers, Shards: f.shards, Telemetry: o.enabled(),
	}
	var sb bytes.Buffer
	w, err := mdz.NewWriter(&sb, cfg)
	if err != nil {
		return err
	}
	if err := o.attach(w.TelemetryRegistry()); err != nil {
		return err
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	stream := sb.Bytes()
	var buf []byte
	buf = append(buf, fileMagic...)
	buf = appendString(buf, d.Meta.Name)
	buf = appendString(buf, d.Meta.State)
	buf = appendString(buf, d.Meta.Code)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stream)))
	buf = append(buf, stream...)
	if err := safeio.WriteFileBytes(out, buf, safeio.Options{NoSync: f.noFsync, WrapWriter: testOutputWrap}); err != nil {
		return err
	}
	o.report = statsReport{
		Command: "compress", Input: in, Output: out,
		Snapshots: d.M(), Atoms: d.N(),
		RawBytes: int64(d.SizeBytes()), CompressedBytes: int64(len(stream)),
		Ratio: float64(d.SizeBytes()) / float64(len(stream)),
	}
	fmt.Fprintf(o.humanOut(), "compressed %s: %d -> %d bytes (CR %.2f)\n",
		in, d.SizeBytes(), len(stream), float64(d.SizeBytes())/float64(len(stream)))
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("truncated file")
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(n) {
		return "", nil, fmt.Errorf("truncated file")
	}
	return string(buf[:n]), buf[n:], nil
}

func parseContainer(path string) (meta [3]string, stream []byte, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return meta, nil, err
	}
	if len(buf) < 4 || string(buf[:4]) != fileMagic {
		return meta, nil, fmt.Errorf("%s is not an mdzc file", path)
	}
	buf = buf[4:]
	for i := range meta {
		meta[i], buf, err = readString(buf)
		if err != nil {
			return meta, nil, err
		}
	}
	if len(buf) < 8 {
		return meta, nil, fmt.Errorf("truncated file")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if uint64(len(buf)) < n {
		return meta, nil, fmt.Errorf("truncated file")
	}
	return meta, buf[:n], nil
}

// decodeStream decodes a container payload with the stream Reader, which
// detects the container from its magic and rejects unknown magics. Salvage
// mode recovers what it can and returns the reader's accounting alongside
// the frames.
func decodeStream(stream []byte, salvage bool, f *cliFlags, o *obs) ([]mdz.Frame, *mdz.SalvageStats, error) {
	r := mdz.NewReaderWith(bytes.NewReader(stream),
		mdz.ReaderOptions{Workers: f.workers, Resync: salvage,
			Telemetry: o.enabled(), MaxDecodeBytes: f.maxDecode})
	if err := o.attach(r.TelemetryRegistry()); err != nil {
		return nil, nil, err
	}
	var frames []mdz.Frame
	var err error
	if f.rangeSpec != "" {
		frames, err = r.ReadRange(f.rangeLo, f.rangeHi)
		if err == io.EOF {
			err = fmt.Errorf("-range %s starts past the end of the stream", f.rangeSpec)
		}
	} else {
		frames, err = r.ReadAll()
	}
	if err != nil {
		return frames, nil, err
	}
	stats := r.SalvageStats()
	return frames, &stats, nil
}

// parseContainerLenient parses as much of a possibly-damaged container as
// it can: metadata best-effort, and whatever payload bytes are actually
// present even if the recorded length claims more (truncated file).
func parseContainerLenient(path string) (meta [3]string, stream []byte, err error) {
	meta, stream, err = parseContainer(path)
	if err == nil {
		return meta, stream, nil
	}
	buf, rerr := os.ReadFile(path)
	if rerr != nil {
		return meta, nil, rerr
	}
	if len(buf) < 4 || string(buf[:4]) != fileMagic {
		return meta, nil, err
	}
	rest := buf[4:]
	for i := range meta {
		var s string
		s, rest, rerr = readString(rest)
		if rerr != nil {
			return meta, nil, err
		}
		meta[i] = s
	}
	if len(rest) < 8 {
		return meta, nil, err
	}
	return meta, rest[8:], nil
}

func doDecompress(f *cliFlags, o *obs) error {
	in, out, salvage := f.decompress, f.out, f.salvage
	if out == "" {
		return fmt.Errorf("-o required")
	}
	var meta [3]string
	var stream []byte
	var err error
	if salvage {
		meta, stream, err = parseContainerLenient(in)
	} else {
		meta, stream, err = parseContainer(in)
	}
	if err != nil {
		return err
	}
	frames, stats, err := decodeStream(stream, salvage, f, o)
	if err != nil {
		return err
	}
	if stats != nil && stats.FirstError != nil {
		fmt.Fprintf(os.Stderr, "mdzc: salvage: first corrupt block %d at offset %d: %v\n",
			stats.FirstError.Block, stats.FirstError.Offset, stats.FirstError.Cause)
		fmt.Fprintf(os.Stderr, "mdzc: salvage: recovered %d snapshots (%d frames dropped, %d corrupt, truncated=%v)\n",
			len(frames), stats.DroppedFrames, stats.CorruptFrames, stats.Truncated)
	}
	d := &dataset.Dataset{Meta: dataset.Metadata{Name: meta[0], State: meta[1], Code: meta[2]}}
	for _, f := range frames {
		d.Frames = append(d.Frames, dataset.Frame{X: f.X, Y: f.Y, Z: f.Z})
	}
	if err := saveTrajectory(d, out, f.noFsync); err != nil {
		return err
	}
	o.report = statsReport{
		Command: "decompress", Input: in, Output: out,
		Snapshots: d.M(), Atoms: d.N(),
		RawBytes: int64(d.SizeBytes()), CompressedBytes: int64(len(stream)),
	}
	fmt.Fprintf(o.humanOut(), "decompressed %s: %d snapshots x %d atoms -> %s\n", in, d.M(), d.N(), out)
	return nil
}

// doFsck verifies the framing and checksums of every block without writing
// any output: clean streams report their totals and exit 0; damaged ones
// report the first corrupt block's index and byte offset, plus what a
// salvage pass would recover, and exit non-zero.
func doFsck(f *cliFlags, o *obs) error {
	in := f.fsck
	_, stream, err := parseContainerLenient(in)
	if err != nil {
		return err
	}
	r := mdz.NewReaderWith(bytes.NewReader(stream),
		mdz.ReaderOptions{Resync: true, Telemetry: o.enabled(), MaxDecodeBytes: f.maxDecode})
	if err := o.attach(r.TelemetryRegistry()); err != nil {
		return err
	}
	o.report = statsReport{Command: "fsck", Input: in}
	frames, err := r.ReadAll()
	if err != nil {
		return err // hard I/O failure, not a verification verdict
	}
	stats := r.SalvageStats()
	if stats.FirstError == nil && !stats.Truncated {
		fmt.Fprintf(o.humanOut(), "%s: ok (%d snapshots, %d corrupt frames)\n", in, len(frames), stats.CorruptFrames)
		return nil
	}
	if stats.FirstError != nil {
		fmt.Fprintf(o.humanOut(), "%s: first corrupt block %d at offset %d: %v\n",
			in, stats.FirstError.Block, stats.FirstError.Offset, stats.FirstError.Cause)
	}
	fmt.Fprintf(o.humanOut(), "%s: salvageable: %d snapshots (%d known dropped, %d blocks skipped, %d bytes unreadable, truncated=%v)\n",
		in, len(frames), stats.DroppedFrames, stats.SkippedBlocks, stats.SkippedBytes, stats.Truncated)
	for _, lr := range stats.LostRanges {
		fmt.Fprintf(o.humanOut(), "%s: lost frames [%d, %d)\n", in, lr.From, lr.To)
	}
	return fmt.Errorf("fsck: %s is corrupt", in)
}

// doIndex retrofits a seek table onto a framed stream written without one
// (-index in.mdz -o out.mdz). The container metadata and every existing
// frame are copied byte-for-byte; only the tail gains a seek-table frame —
// the output is exactly what -c -seek-index would have produced.
func doIndex(f *cliFlags, o *obs) error {
	in := f.index
	meta, stream, err := parseContainer(in)
	if err != nil {
		return err
	}
	var indexed bytes.Buffer
	frames, err := mdz.RetrofitSeekIndex(bytes.NewReader(stream), &indexed)
	if errors.Is(err, mdz.ErrNotSeekable) {
		return fmt.Errorf("-index requires a v2 framed stream; %s: %w (decompress it and compress again with -c)", in, err)
	}
	if err != nil {
		return err
	}
	var buf []byte
	buf = append(buf, fileMagic...)
	for _, s := range meta {
		buf = appendString(buf, s)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexed.Len()))
	buf = append(buf, indexed.Bytes()...)
	if err := safeio.WriteFileBytes(f.out, buf, safeio.Options{NoSync: f.noFsync, WrapWriter: testOutputWrap}); err != nil {
		return err
	}
	o.report = statsReport{Command: "index", Input: in, Output: f.out, CompressedBytes: int64(indexed.Len())}
	fmt.Fprintf(o.humanOut(), "indexed %s: %d frames, %d -> %d bytes -> %s\n",
		in, frames, len(stream), indexed.Len(), f.out)
	return nil
}

func doInfo(f *cliFlags, o *obs) error {
	in := f.info
	meta, stream, err := parseContainer(in)
	if err != nil {
		return err
	}
	frames, _, err := decodeStream(stream, false, f, o)
	if err != nil {
		return err
	}
	o.report = statsReport{Command: "info", Input: in, Snapshots: len(frames)}
	n := 0
	if len(frames) > 0 {
		n = frames[0].N()
	}
	raw := len(frames) * n * 3 * 8
	fmt.Fprintf(o.humanOut(), "dataset: %s (%s, %s)\n", meta[0], meta[1], meta[2])
	fmt.Fprintf(o.humanOut(), "snapshots: %d  atoms: %d\n", len(frames), n)
	fmt.Fprintf(o.humanOut(), "compressed: %d bytes  raw: %d bytes  CR: %.2f\n",
		len(stream), raw, float64(raw)/float64(len(stream)))
	return nil
}

// loadTrajectory reads .mdzd binary or .xyz text trajectories by extension.
func loadTrajectory(path string) (*dataset.Dataset, error) {
	if strings.HasSuffix(strings.ToLower(path), ".xyz") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadXYZ(f)
	}
	return dataset.Load(path)
}

// saveTrajectory writes .mdzd binary or .xyz text by extension, committing
// through safeio so a crash mid-write never leaves a torn file under the
// output path.
func saveTrajectory(d *dataset.Dataset, path string, noFsync bool) error {
	opts := safeio.Options{NoSync: noFsync, WrapWriter: testOutputWrap}
	if strings.HasSuffix(strings.ToLower(path), ".xyz") {
		return safeio.WriteFile(path, opts, d.WriteXYZ)
	}
	return safeio.WriteFile(path, opts, d.Write)
}
