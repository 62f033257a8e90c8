package mdz

import (
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/lossless"
)

// AxisState is the cross-batch compressor state of one axis: the absolute
// error bound and quantization scale in effect, the fitted k-means level
// model (λ, μ), the concrete method currently selected, and the quantized
// snapshot-0 reference used by MT prediction.
type AxisState struct {
	ErrorBound    float64
	QuantScale    int
	K             int
	LevelDistance float64
	LevelOrigin   float64
	Method        Method
	Ref           []float64
}

// CheckpointState is everything needed to restart compression or
// decompression mid-stream: per-axis state plus the running batch index.
// Writer embeds it in checkpoint blocks every Config.CheckpointInterval
// data blocks; Reader reseeds from it after corruption.
type CheckpointState struct {
	// Batch is the number of batches encoded before this checkpoint.
	Batch int
	// Axes holds the X, Y, Z axis states.
	Axes [3]AxisState
}

const checkpointVersion = 1

// MarshalBinary encodes the checkpoint into the self-contained payload
// format carried by checkpoint blocks.
func (st *CheckpointState) MarshalBinary() ([]byte, error) {
	if st.Batch < 0 {
		return nil, fmt.Errorf("mdz: negative checkpoint batch index %d", st.Batch)
	}
	out := []byte{checkpointVersion}
	out = bitstream.AppendUvarint(out, uint64(st.Batch))
	for axis := range st.Axes {
		ax := &st.Axes[axis]
		out = bitstream.AppendFloat64(out, ax.ErrorBound)
		out = bitstream.AppendUvarint(out, uint64(ax.QuantScale))
		out = bitstream.AppendUvarint(out, uint64(ax.K))
		out = bitstream.AppendFloat64(out, ax.LevelDistance)
		out = bitstream.AppendFloat64(out, ax.LevelOrigin)
		out = append(out, byte(ax.Method))
		// The reference values are quantized reconstructions, so their byte
		// patterns repeat and LZ shrinks them well.
		refBytes := bitstream.AppendFloat64s(nil, ax.Ref)
		packed, err := lossless.LZ{}.Compress(refBytes)
		if err != nil {
			return nil, err
		}
		out = bitstream.AppendUvarint(out, uint64(len(ax.Ref)))
		out = bitstream.AppendSection(out, packed)
	}
	return out, nil
}

// UnmarshalBinary inverts MarshalBinary. Malformed payloads report
// ErrCorruptBlock.
func (st *CheckpointState) UnmarshalBinary(data []byte) error {
	return st.unmarshalTx(data, nil)
}

// unmarshalTx is UnmarshalBinary charging decode-side allocations (the
// per-axis reference snapshots and their unpacked byte images) against tx.
// A checkpoint claiming reference lengths past the budget is rejected with
// ErrBudgetExceeded before the allocations happen; nil tx is unlimited.
func (st *CheckpointState) unmarshalTx(data []byte, tx *budget.Tx) error {
	br := bitstream.NewByteReader(data)
	ver, err := br.ReadByte()
	if err != nil || ver != checkpointVersion {
		return fmt.Errorf("%w: unsupported checkpoint version", ErrCorruptBlock)
	}
	batch, err := br.ReadUvarint()
	if err != nil || batch > 1<<40 {
		return fmt.Errorf("%w: bad checkpoint batch index", ErrCorruptBlock)
	}
	st.Batch = int(batch)
	for axis := range st.Axes {
		ax := &st.Axes[axis]
		if ax.ErrorBound, err = br.ReadFloat64(); err != nil {
			return mapBlockErr(err)
		}
		scale, err := br.ReadUvarint()
		if err != nil || scale > 1<<31 {
			return fmt.Errorf("%w: bad checkpoint quant scale", ErrCorruptBlock)
		}
		ax.QuantScale = int(scale)
		k, err := br.ReadUvarint()
		if err != nil || k > 1<<31 {
			return fmt.Errorf("%w: bad checkpoint level count", ErrCorruptBlock)
		}
		ax.K = int(k)
		if ax.LevelDistance, err = br.ReadFloat64(); err != nil {
			return mapBlockErr(err)
		}
		if ax.LevelOrigin, err = br.ReadFloat64(); err != nil {
			return mapBlockErr(err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return mapBlockErr(err)
		}
		ax.Method = Method(mb)
		n, err := br.ReadUvarint()
		if err != nil || n > 1<<33 {
			return fmt.Errorf("%w: bad checkpoint reference length", ErrCorruptBlock)
		}
		// Charge the float slice up front; the packed bytes' own expansion is
		// charged inside LZ.DecompressTx.
		if err := tx.Reserve(8 * int64(n)); err != nil {
			return err
		}
		packed, err := br.ReadSection()
		if err != nil {
			return mapBlockErr(err)
		}
		refBytes, err := lossless.LZ{}.DecompressTx(packed, tx)
		if err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				return err
			}
			return fmt.Errorf("%w: checkpoint reference: %w", ErrCorruptBlock, err)
		}
		if uint64(len(refBytes)) != 8*n {
			return fmt.Errorf("%w: checkpoint reference length mismatch", ErrCorruptBlock)
		}
		if n == 0 {
			ax.Ref = nil
			continue
		}
		if ax.Ref, err = bitstream.DecodeFloat64s(ax.Ref[:0], refBytes); err != nil {
			return mapBlockErr(err)
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("%w: trailing checkpoint bytes", ErrCorruptBlock)
	}
	return nil
}

// parseCheckpoint decodes a checkpoint frame payload, charging its
// allocations to the decompressor's decode budget.
func (d *Decompressor) parseCheckpoint(payload []byte) (*CheckpointState, error) {
	st := &CheckpointState{}
	tx := d.bud.Begin()
	defer tx.Close()
	if err := st.unmarshalTx(payload, tx); err != nil {
		return nil, err
	}
	return st, nil
}

// writerStateVersion versions the WriterState wire encoding.
const writerStateVersion = 1

// Writer-state flag bits.
const (
	writerStateOpened     = 1 << 0
	writerStateCheckpoint = 1 << 1
	// writerStateSeekIndex marks a state exported from an indexing Writer
	// (Config.SeekIndex); the payload then carries the seek-table entries
	// accumulated so far. States without the flag encode byte-identically
	// to the historical format.
	writerStateSeekIndex = 1 << 2
)

// maxWriterStatePending caps the claimed pending-snapshot dimensions a
// WriterState payload may carry before allocation.
const maxWriterStatePending = 1 << 20

// MarshalBinary encodes the writer state into a self-contained payload —
// the unit a draining server persists per live session.
func (st *WriterState) MarshalBinary() ([]byte, error) {
	out := []byte{writerStateVersion}
	var flags byte
	if st.Opened {
		flags |= writerStateOpened
	}
	if st.Checkpoint != nil {
		flags |= writerStateCheckpoint
	}
	if st.SeekIndex {
		flags |= writerStateSeekIndex
	}
	out = append(out, flags)
	out = bitstream.AppendUvarint(out, uint64(st.Seq))
	for _, v := range []int64{st.Blocks, st.Frames, st.RawBytes, st.CompBytes} {
		if v < 0 {
			return nil, fmt.Errorf("mdz: negative writer-state counter %d", v)
		}
		out = bitstream.AppendUvarint(out, uint64(v))
	}
	if st.Checkpoint != nil {
		cp, err := st.Checkpoint.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = bitstream.AppendSection(out, cp)
	}
	out = bitstream.AppendUvarint(out, uint64(len(st.Pending)))
	for _, f := range st.Pending {
		n := f.N()
		if len(f.Y) != n || len(f.Z) != n {
			return nil, errors.New("mdz: pending frame with inconsistent axis lengths")
		}
		out = bitstream.AppendUvarint(out, uint64(n))
		out = bitstream.AppendFloat64s(out, f.X)
		out = bitstream.AppendFloat64s(out, f.Y)
		out = bitstream.AppendFloat64s(out, f.Z)
	}
	if st.SeekIndex {
		out = bitstream.AppendSection(out, appendSeekIndex(nil, st.Index))
	}
	return out, nil
}

// UnmarshalBinary inverts MarshalBinary. Malformed payloads report
// ErrCorruptBlock.
func (st *WriterState) UnmarshalBinary(data []byte) error {
	br := bitstream.NewByteReader(data)
	ver, err := br.ReadByte()
	if err != nil || ver != writerStateVersion {
		return fmt.Errorf("%w: unsupported writer-state version", ErrCorruptBlock)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return mapBlockErr(err)
	}
	st.Opened = flags&writerStateOpened != 0
	seq, err := br.ReadUvarint()
	if err != nil || seq > 1<<32-1 {
		return fmt.Errorf("%w: bad writer-state sequence", ErrCorruptBlock)
	}
	st.Seq = uint32(seq)
	for _, dst := range []*int64{&st.Blocks, &st.Frames, &st.RawBytes, &st.CompBytes} {
		v, err := br.ReadUvarint()
		if err != nil || v > 1<<62 {
			return fmt.Errorf("%w: bad writer-state counter", ErrCorruptBlock)
		}
		*dst = int64(v)
	}
	st.Checkpoint = nil
	if flags&writerStateCheckpoint != 0 {
		sec, err := br.ReadSection()
		if err != nil {
			return mapBlockErr(err)
		}
		st.Checkpoint = &CheckpointState{}
		if err := st.Checkpoint.UnmarshalBinary(sec); err != nil {
			return err
		}
	}
	np, err := br.ReadUvarint()
	if err != nil || np > maxWriterStatePending {
		return fmt.Errorf("%w: bad writer-state pending count", ErrCorruptBlock)
	}
	st.Pending = make([]Frame, np)
	for i := range st.Pending {
		n, err := br.ReadUvarint()
		if err != nil || n > maxWriterStatePending {
			return fmt.Errorf("%w: bad writer-state frame length", ErrCorruptBlock)
		}
		f := Frame{}
		for _, axis := range []*[]float64{&f.X, &f.Y, &f.Z} {
			raw, err := br.ReadBytes(8 * int(n))
			if err != nil {
				return mapBlockErr(err)
			}
			if *axis, err = bitstream.DecodeFloat64s(nil, raw); err != nil {
				return mapBlockErr(err)
			}
		}
		st.Pending[i] = f
	}
	st.SeekIndex = flags&writerStateSeekIndex != 0
	st.Index = nil
	if st.SeekIndex {
		sec, err := br.ReadSection()
		if err != nil {
			return mapBlockErr(err)
		}
		if st.Index, err = parseSeekIndex(sec); err != nil {
			return err
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("%w: trailing writer-state bytes", ErrCorruptBlock)
	}
	return nil
}

// ExportState snapshots the compressor's cross-batch state after at least
// one compressed batch; it is what Writer embeds in checkpoint blocks. The
// returned state shares nothing with the compressor.
func (c *Compressor) ExportState() (*CheckpointState, error) {
	st := &CheckpointState{}
	for axis, e := range c.enc {
		if e == nil {
			return nil, errors.New("mdz: ExportState before the first batch")
		}
		es := e.ExportState()
		st.Batch = es.Batch
		st.Axes[axis] = AxisState{
			ErrorBound:    es.ErrorBound,
			QuantScale:    es.QuantScale,
			K:             es.K,
			LevelDistance: es.LevelDistance,
			LevelOrigin:   es.LevelOrigin,
			Method:        es.Current,
			Ref:           es.Ref,
		}
	}
	return st, nil
}

// ImportState restores state exported by ExportState into a fresh
// Compressor built with an equivalent Config, so compression can resume
// mid-stream: the next CompressBatch produces bytes identical to what the
// original compressor would have emitted. The error-bound and scale come
// from the state (they were resolved from the first batch of the original
// run), so Config.Mode is not re-applied.
func (c *Compressor) ImportState(st *CheckpointState) error {
	for axis := range c.enc {
		if c.enc[axis] != nil {
			return fmt.Errorf("%w: ImportState on a used compressor", ErrStateDesync)
		}
	}
	for axis := range c.enc {
		ax := &st.Axes[axis]
		enc, err := core.NewEncoder(c.axisParams(axis, ax.ErrorBound, ax.QuantScale))
		if err != nil {
			return err
		}
		if err := enc.ImportState(core.EncoderState{
			ErrorBound:    ax.ErrorBound,
			QuantScale:    ax.QuantScale,
			K:             ax.K,
			LevelDistance: ax.LevelDistance,
			LevelOrigin:   ax.LevelOrigin,
			Current:       core.Method(ax.Method),
			Batch:         st.Batch,
			Ref:           ax.Ref,
		}); err != nil {
			return mapBlockErr(err)
		}
		c.enc[axis] = enc
	}
	return nil
}

// ImportState reseeds the decompressor's cross-block state (the per-axis
// MT reference snapshots) from a checkpoint, allowing decoding to resume
// at any block recorded after that checkpoint.
func (d *Decompressor) ImportState(st *CheckpointState) error {
	for axis := range st.Axes {
		ref := st.Axes[axis].Ref
		if ref == nil {
			return fmt.Errorf("%w: checkpoint carries no axis-%d reference", ErrStateDesync, axis)
		}
	}
	for axis, dec := range d.dec {
		dec.SetRef(st.Axes[axis].Ref)
	}
	return nil
}

// stateMatches reports whether the decompressor's established references
// agree bit-for-bit with the checkpoint (vacuously true for axes where the
// decompressor has no reference yet). A mismatch on a healthy stream means
// encoder and decoder have desynchronized.
func (d *Decompressor) stateMatches(st *CheckpointState) bool {
	for axis, dec := range d.dec {
		ref := dec.Ref()
		if ref == nil {
			continue
		}
		want := st.Axes[axis].Ref
		if len(ref) != len(want) {
			return false
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
	}
	return true
}

// seeded reports whether every axis decoder has an established MT
// reference (from decoding block 0 in order, or from a checkpoint).
func (d *Decompressor) seeded() bool {
	for _, dec := range d.dec {
		if dec.Ref() == nil {
			return false
		}
	}
	return true
}
