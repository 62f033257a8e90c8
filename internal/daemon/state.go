package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/safeio"
)

// Drain-state file layout: "MDZD" magic, a version byte, a uvarint session
// count, then per session three length-prefixed sections — JSON metadata,
// container bytes, serialized WriterState (empty for closed sessions).
// The file is written atomically on drain and consumed (deleted) on
// restore, so a crash between restarts can never resurrect stale sessions
// on top of newer ones.
const (
	drainMagic   = "MDZD"
	drainVersion = 2 // v2 persists the whole SessionConfig
)

// drainMeta is the JSON metadata section of one persisted session. Config
// is the session's creation body, stored whole so restore rebuilds the
// Writer through the same toConfig as creation.
type drainMeta struct {
	ID       string        `json:"id"`
	State    string        `json:"state"`
	Frames   int64         `json:"frames"`
	Atoms    int           `json:"atoms"`
	RawBytes int64         `json:"raw_bytes"`
	Config   SessionConfig `json:"config"`
}

// drainedV3 reports whether a drain record's creation body asked for the
// removed format v3 ("format_version": 3, as builds that had it stored).
// Such a session's container and writer state hold v3 bytes that this
// build can neither resume nor serve.
func drainedV3(mj []byte) bool {
	var rec struct {
		Config struct {
			FormatVersion int `json:"format_version"`
		} `json:"config"`
	}
	return json.Unmarshal(mj, &rec) == nil && rec.Config.FormatVersion == 3
}

// Drain stops ingest on every live session — every accepted frame is
// compressed into its container first — and, when StatePath is set,
// persists all sessions atomically so the next process resumes them. The
// server stops accepting new sessions permanently; the process is expected
// to exit afterwards.
func (srv *Server) Drain() error {
	srv.mu.Lock()
	srv.draining = true
	list := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		list = append(list, s)
	}
	srv.mu.Unlock()

	for _, s := range list {
		s.stopIngest()
	}
	if srv.opts.StatePath == "" {
		return nil
	}

	out := append([]byte(drainMagic), drainVersion)
	out = bitstream.AppendUvarint(out, uint64(len(list)))
	persisted := 0
	for _, s := range list {
		blob, err := s.export()
		if err != nil {
			srv.logf("drain: dropping session %s: %v", s.id, err)
			// A session that cannot export still occupies a count slot:
			// record an empty entry so the count stays honest.
			out = bitstream.AppendSection(out, nil)
			out = bitstream.AppendSection(out, nil)
			out = bitstream.AppendSection(out, nil)
			continue
		}
		out = append(out, blob...)
		persisted++
	}
	if err := safeio.WriteFileBytes(srv.opts.StatePath, out, safeio.Options{}); err != nil {
		return fmt.Errorf("daemon: persisting drain state: %w", err)
	}
	srv.tel.drained.Add(int64(persisted))
	srv.logf("drained %d session(s) to %s", persisted, srv.opts.StatePath)
	return nil
}

// export serializes one quiesced session (stopIngest already ran) as its
// three drain-file sections. Failed sessions do not export: their streams
// are already broken and resuming them would lie to the client.
func (s *session) export() ([]byte, error) {
	if err := s.failed(); err != nil {
		return nil, fmt.Errorf("session failed: %w", err)
	}
	s.mu.Lock()
	closed := s.state == stateClosed
	w := s.w
	s.mu.Unlock()

	var wst []byte
	if !closed {
		// ExportState flushes the Writer through sink (which locks mu), so
		// it must run while mu is free.
		st, err := w.ExportState()
		if err != nil {
			return nil, err
		}
		if wst, err = st.MarshalBinary(); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	meta := drainMeta{
		ID: s.id, State: s.state,
		Frames: s.frames, Atoms: s.atoms, RawBytes: s.rawBytes,
		Config: s.sc,
	}
	container := append([]byte(nil), s.buf.Bytes()...)
	s.mu.Unlock()

	mj, err := json.Marshal(&meta)
	if err != nil {
		return nil, err
	}
	var out []byte
	out = bitstream.AppendSection(out, mj)
	out = bitstream.AppendSection(out, container)
	out = bitstream.AppendSection(out, wst)
	return out, nil
}

// restore loads a drain file, reconstructs its sessions and deletes the
// file. A missing file is a clean first boot. A corrupt file is an error:
// silently discarding sessions a client was promised would be data loss.
func (srv *Server) restore(path string) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(data) < len(drainMagic)+1 || string(data[:4]) != drainMagic {
		return 0, errors.New("not a drain-state file")
	}
	if data[4] != drainVersion {
		return 0, fmt.Errorf("unsupported drain-state version %d", data[4])
	}
	br := bitstream.NewByteReader(data[5:])
	count, err := br.ReadUvarint()
	if err != nil || count > 1<<20 {
		return 0, errors.New("bad session count")
	}
	restored := 0
	var maxID uint64
	for i := uint64(0); i < count; i++ {
		mj, err := br.ReadSection()
		if err != nil {
			return restored, fmt.Errorf("session %d: metadata: %w", i, err)
		}
		container, err := br.ReadSection()
		if err != nil {
			return restored, fmt.Errorf("session %d: container: %w", i, err)
		}
		wstRaw, err := br.ReadSection()
		if err != nil {
			return restored, fmt.Errorf("session %d: writer state: %w", i, err)
		}
		if len(mj) == 0 {
			continue // a session dropped at drain time
		}
		var meta drainMeta
		if err := json.Unmarshal(mj, &meta); err != nil {
			return restored, fmt.Errorf("session %d: metadata: %w", i, err)
		}
		if drainedV3(mj) {
			return restored, fmt.Errorf("session %s: written in the removed format v3; restore it with the build that drained it", meta.ID)
		}
		var wst *mdz.WriterState
		if len(wstRaw) > 0 {
			wst = &mdz.WriterState{}
			if err := wst.UnmarshalBinary(wstRaw); err != nil {
				return restored, fmt.Errorf("session %s: writer state: %w", meta.ID, err)
			}
		}
		s, err := srv.buildSession(meta.ID, meta.Config, container, wst)
		if err != nil {
			return restored, fmt.Errorf("session %s: %w", meta.ID, err)
		}
		s.mu.Lock()
		s.frames = meta.Frames
		s.atoms = meta.Atoms
		s.rawBytes = meta.RawBytes
		if meta.State == stateClosed {
			s.state = stateClosed
		}
		s.mu.Unlock()
		srv.mu.Lock()
		srv.sessions[meta.ID] = s
		srv.mu.Unlock()
		srv.tel.active.Add(1)
		srv.tel.restored.Inc()
		if n, ok := parseSessionID(meta.ID); ok && n > maxID {
			maxID = n
		}
		restored++
	}
	if br.Len() != 0 {
		return restored, errors.New("trailing bytes after the last session")
	}
	srv.mu.Lock()
	if maxID > srv.nextID {
		srv.nextID = maxID
	}
	srv.mu.Unlock()
	// Consume the file: it represents sessions that now live here.
	if err := os.Remove(path); err != nil {
		return restored, fmt.Errorf("consuming drain state: %w", err)
	}
	return restored, nil
}

// parseSessionID inverts the "s%08x" id format.
func parseSessionID(id string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, "s%x", &n); err != nil {
		return 0, false
	}
	return n, true
}
