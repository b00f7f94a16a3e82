package core

// This file implements the platform journal: the logged-mutation path that
// makes the platform durable between images. Every public mutator applies
// the change to the in-memory platform, appends exactly one record to the
// write-ahead log (Exec one per statement), and only acknowledges once the
// record is durable under the log's sync policy. The journal's lock
// serializes {apply + append}
// so the log's record order IS the application order — the property that
// makes replay deterministic (statement ids come from a platform counter,
// so records replayed in order reproduce the ids they were acknowledged
// with). The fsync wait happens outside the lock, so group commit batches
// concurrent acknowledgements into shared fsyncs.
//
// Recovery: load the newest image (which records the LSN of the last
// mutation it contains), then replay every log record past that LSN.
// Compact() re-anchors: it writes a fresh image at the current LSN and
// atomically swaps in an empty log anchored there.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
	"crosse/internal/wal"
)

// Mutator is the platform mutation surface. *kb.Platform implements it
// directly (no durability); *Journal implements it with write-ahead
// logging. The REST layer mutates through this interface so a server runs
// identically with or without a journal.
type Mutator interface {
	RegisterUser(name string) error
	Insert(user string, t rdf.Triple, opts ...kb.InsertOption) (string, error)
	Import(user, id string) error
	ImportFrom(user, fromUser string, filter func(*kb.Statement) bool) (int, error)
	Retract(user, id string) error
	RegisterQuery(owner, name, text string) error
	DeclareResource(user, iri string) error
	DeclareProperty(user, iri string) error
}

var _ Mutator = (*kb.Platform)(nil)
var _ Mutator = (*Journal)(nil)

// ErrWedged marks a journal that applied a mutation it could not log: the
// in-memory state is ahead of the durable log, so further mutations are
// refused until the operator compacts or restarts. The serving tier maps
// it to 503.
var ErrWedged = errors.New("core: journal wedged (state applied but not logged)")

// JournalOptions configure OpenJournal.
type JournalOptions struct {
	// FS is the filesystem (nil = the real one). The crash property suite
	// passes a fault-injecting in-memory FS.
	FS wal.FS
	// Sync is the log's durability policy.
	Sync wal.SyncPolicy
	// SyncEvery is the SyncInterval period.
	SyncEvery time.Duration
	// Logf receives operational notices (nil = silent).
	Logf func(format string, args ...any)
}

// Journal is a platform with a write-ahead log under it.
type Journal struct {
	db  *engine.DB
	p   *kb.Platform
	log *wal.Log
	fs  wal.FS
	dir string

	// mu serializes every logged mutation's {apply + append} pair (and
	// compaction, which must see a quiescent platform at a known LSN).
	mu     sync.Mutex
	wedged error
}

// ImagePath returns the platform image path under a journal directory.
func ImagePath(dir string) string { return filepath.Join(dir, "platform.img") }

// LogPath returns the write-ahead log path under a journal directory.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

// OpenJournal opens (or initialises) the journal directory. When an image
// exists the platform is restored from it and the log replayed past the
// image's anchor; restored reports true. When the directory is fresh,
// bootstrap supplies the initial platform pair, an anchoring image is
// written, and an empty log is created — so the bootstrap state itself
// never depends on the log. A log without an image is refused: the records
// are relative to an image that is gone.
func OpenJournal(dir string, opts JournalOptions, bootstrap func() (*engine.DB, *kb.Platform, error)) (*Journal, bool, error) {
	j := &Journal{fs: opts.FS, dir: dir}
	if j.fs == nil {
		j.fs = wal.OS
	}
	imgPath, logPath := ImagePath(dir), LogPath(dir)

	img, err := j.fs.ReadFile(imgPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if _, err := j.fs.ReadFile(logPath); err == nil {
			return nil, false, fmt.Errorf("core: %s exists without %s: the log's anchoring image is gone; refusing to guess", logPath, imgPath)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, false, err
		}
		db, p, err := bootstrap()
		if err != nil {
			return nil, false, fmt.Errorf("core: bootstrap journal: %w", err)
		}
		if _, err := saveImageFS(j.fs, imgPath, db, p, 0); err != nil {
			return nil, false, fmt.Errorf("core: write bootstrap image: %w", err)
		}
		j.db, j.p = db, p
		j.log, err = wal.Open(logPath, wal.Options{
			FS: j.fs, Sync: opts.Sync, SyncEvery: opts.SyncEvery, Start: 0, Logf: opts.Logf,
		})
		if err != nil {
			return nil, false, err
		}
		return j, false, nil

	case err != nil:
		return nil, false, err
	}

	db, p, lsn, err := ReadImageLSN(bytes.NewReader(img))
	if err != nil {
		return nil, false, fmt.Errorf("core: load image %s: %w", imgPath, err)
	}
	j.db, j.p = db, p
	j.log, err = wal.Open(logPath, wal.Options{
		FS:        j.fs,
		Sync:      opts.Sync,
		SyncEvery: opts.SyncEvery,
		Start:     lsn,
		FromLSN:   lsn,
		Replay: func(_ uint64, payload []byte) error {
			return applyOp(db, p, payload)
		},
		Logf: opts.Logf,
	})
	if err != nil {
		return nil, false, err
	}
	return j, true, nil
}

// DB returns the journal's databank.
func (j *Journal) DB() *engine.DB { return j.db }

// Platform returns the journal's semantic platform. Reads (views, queries,
// exploration) go straight to it; mutations must go through the journal.
func (j *Journal) Platform() *kb.Platform { return j.p }

// Status reports the underlying log's position.
func (j *Journal) Status() wal.Status { return j.log.StatusNow() }

// Wedged reports the error that permanently wedged the journal (state
// applied but not logged), or nil while it accepts mutations. Liveness
// endpoints use it: a wedged journal means the node serves reads but can
// no longer acknowledge writes.
func (j *Journal) Wedged() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wedged
}

// logged runs one mutation: apply to the in-memory platform, append its
// record, then (outside the lock) wait for durability. An apply error is
// the mutation's own error — nothing was logged, nothing changed. An
// append error after a successful apply wedges the journal permanently:
// the in-memory platform is now ahead of the durable log, so acknowledging
// anything more (or compacting the divergent state into an image) would
// break the recovery invariant.
func (j *Journal) logged(apply func() error, record func() []byte) error {
	j.mu.Lock()
	if j.wedged != nil {
		j.mu.Unlock()
		return j.wedged
	}
	if err := apply(); err != nil {
		j.mu.Unlock()
		return err
	}
	payload := record()
	if payload == nil { // the mutation was a no-op; nothing to make durable
		j.mu.Unlock()
		return nil
	}
	lsn, err := j.log.Append(payload)
	if err != nil {
		j.wedged = fmt.Errorf("%w: %v", ErrWedged, err)
		j.mu.Unlock()
		return j.wedged
	}
	j.mu.Unlock()
	return j.log.Commit(lsn)
}

func (j *Journal) RegisterUser(name string) error {
	return j.logged(
		func() error { return j.p.RegisterUser(name) },
		func() []byte { return encRegisterUser(name) },
	)
}

func (j *Journal) Insert(user string, t rdf.Triple, opts ...kb.InsertOption) (string, error) {
	args := kb.ResolveInsertOptions(opts...)
	var id string
	err := j.logged(
		func() (err error) {
			id, err = j.p.Insert(user, t, opts...)
			return err
		},
		func() []byte { return encInsert(id, user, t, args.Ref) },
	)
	if err != nil {
		return "", err
	}
	return id, nil
}

func (j *Journal) Import(user, id string) error {
	var epoch uint64
	return j.logged(
		func() error {
			epoch = j.p.ViewEpoch(user)
			return j.p.Import(user, id)
		},
		func() []byte {
			if j.p.ViewEpoch(user) == epoch { // already believed; no record
				return nil
			}
			return encImport(user, id)
		},
	)
}

func (j *Journal) ImportFrom(user, fromUser string, filter func(*kb.Statement) bool) (int, error) {
	var ids []string
	err := j.logged(
		func() (err error) {
			ids, err = j.p.ImportFromIDs(user, fromUser, filter)
			return err
		},
		func() []byte {
			if len(ids) == 0 { // imported nothing; no record
				return nil
			}
			return encImportBatch(user, ids)
		},
	)
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

func (j *Journal) Retract(user, id string) error {
	return j.logged(
		func() error { return j.p.Retract(user, id) },
		func() []byte { return encRetract(user, id) },
	)
}

func (j *Journal) RegisterQuery(owner, name, text string) error {
	return j.logged(
		func() error { return j.p.RegisterQuery(owner, name, text) },
		func() []byte { return encRegisterQuery(owner, name, text) },
	)
}

func (j *Journal) DeclareResource(user, iri string) error {
	return j.logged(
		func() error { return j.p.DeclareResource(user, iri) },
		func() []byte { return encDeclare(kb.DeclResource, user, iri) },
	)
}

func (j *Journal) DeclareProperty(user, iri string) error {
	return j.logged(
		func() error { return j.p.DeclareProperty(user, iri) },
		func() []byte { return encDeclare(kb.DeclProperty, user, iri) },
	)
}

// Exec runs SQL against the databank one statement at a time. A SELECT
// reads without touching the journal; every other statement is logged once
// it succeeds. A statement that fails after changing rows (a multi-row
// INSERT reaching a duplicate key) is logged too, marked as failed, so
// that replay reproduces its partial effect; a failure that changed
// nothing logs nothing. A failure ends the script.
func (j *Journal) Exec(sql string) (*sqlexec.Result, error) {
	last := &sqlexec.Result{}
	for _, stmt := range engine.SplitStatements(sql) {
		var res *sqlexec.Result
		var err error
		if strings.EqualFold(strings.Fields(stmt)[0], "SELECT") {
			res, err = j.db.ExecStatement(stmt)
		} else {
			res, err = j.execLogged(stmt)
		}
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// execLogged runs one state-changing statement under the journal.
func (j *Journal) execLogged(stmt string) (*sqlexec.Result, error) {
	var res *sqlexec.Result
	var failed error
	err := j.logged(
		func() error {
			res, failed = j.db.ExecStatement(stmt)
			if failed != nil && (res == nil || res.Affected == 0) {
				return failed
			}
			return nil
		},
		func() []byte {
			if failed != nil {
				return encSQLFailed(stmt)
			}
			return encSQL(stmt)
		},
	)
	if err == nil {
		err = failed
	}
	return res, err
}

// Compact re-anchors the journal: under the mutation lock (so the platform
// is quiescent at a known LSN) it writes a fresh image recording that LSN,
// then atomically rotates in an empty log anchored there. A crash between
// the two steps is safe: the new image is durable before the old log is
// replaced, and recovery replays only records past the image's anchor, so
// the old log's records — all at or before that anchor — are validated
// but skipped, never re-applied.
func (j *Journal) Compact() (wal.Status, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wedged != nil {
		return wal.Status{}, j.wedged
	}
	lsn := j.log.LSN()
	if _, err := saveImageFS(j.fs, ImagePath(j.dir), j.db, j.p, lsn); err != nil {
		return wal.Status{}, fmt.Errorf("core: compact image: %w", err)
	}
	if err := j.log.Rotate(lsn); err != nil {
		return wal.Status{}, fmt.Errorf("core: compact rotate: %w", err)
	}
	return j.log.StatusNow(), nil
}

// Close flushes and closes the log. The platform stays usable in memory.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
