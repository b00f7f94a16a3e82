package core

// This file is the record codec for the platform write-ahead log: each
// acknowledged mutation is one self-contained record (encoded with the
// snapshot wire primitives from internal/rdf, the PR 4 varint codec) that
// applyOp can re-apply to a platform restored from the anchoring image.
// Records are ID-level — an ImportFrom batch stores the statement ids it
// resolved, not the filter closure, and an Insert stores the id it was
// acknowledged with so replay can verify determinism (ids are allocated
// from a platform counter, so replaying records in log order reproduces
// them exactly).

import (
	"bufio"
	"bytes"
	"fmt"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// Operation kinds. Append-only: never renumber, only add.
const (
	opRegisterUser  = 1
	opInsert        = 2
	opImport        = 3
	opImportBatch   = 4
	opRetract       = 5
	opRegisterQuery = 6
	opDeclare       = 7
	opSQL           = 8
	// opSQLFailed is a statement that failed after changing rows: replay
	// runs it for its partial effect and requires it to fail again.
	opSQLFailed = 9
)

// opEncoder accumulates one record payload.
type opEncoder struct {
	buf bytes.Buffer
	bw  *bufio.Writer
	enc rdf.SnapshotEncoder
}

func newOpEncoder(kind byte) *opEncoder {
	e := &opEncoder{}
	e.bw = bufio.NewWriter(&e.buf)
	e.enc = rdf.SnapshotEncoder{W: e.bw}
	e.enc.Byte(kind)
	return e
}

func (e *opEncoder) bytes() []byte {
	e.bw.Flush()
	return e.buf.Bytes()
}

func encRegisterUser(name string) []byte {
	e := newOpEncoder(opRegisterUser)
	e.enc.String(name)
	return e.bytes()
}

// encInsert records an insertion. The Integrated flag is deliberately NOT
// recorded: it is input validation against the databank (the concept
// checker), not state, and re-validating during replay would make recovery
// depend on checker wiring that may not exist yet at replay time.
func encInsert(id, user string, t rdf.Triple, ref *kb.Reference) []byte {
	e := newOpEncoder(opInsert)
	e.enc.String(id)
	e.enc.String(user)
	e.enc.Term(t.S)
	e.enc.Term(t.P)
	e.enc.Term(t.O)
	if ref == nil {
		e.enc.Byte(0)
	} else {
		e.enc.Byte(1)
		e.enc.String(ref.Title)
		e.enc.String(ref.Author)
		e.enc.String(ref.Link)
		e.enc.String(ref.File)
	}
	return e.bytes()
}

func encImport(user, id string) []byte {
	e := newOpEncoder(opImport)
	e.enc.String(user)
	e.enc.String(id)
	return e.bytes()
}

func encImportBatch(user string, ids []string) []byte {
	e := newOpEncoder(opImportBatch)
	e.enc.String(user)
	e.enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.enc.String(id)
	}
	return e.bytes()
}

func encRetract(user, id string) []byte {
	e := newOpEncoder(opRetract)
	e.enc.String(user)
	e.enc.String(id)
	return e.bytes()
}

func encRegisterQuery(owner, name, text string) []byte {
	e := newOpEncoder(opRegisterQuery)
	e.enc.String(owner)
	e.enc.String(name)
	e.enc.String(text)
	return e.bytes()
}

func encDeclare(kind kb.DeclKind, user, iri string) []byte {
	e := newOpEncoder(opDeclare)
	e.enc.Byte(byte(kind))
	e.enc.String(user)
	e.enc.String(iri)
	return e.bytes()
}

func encSQL(text string) []byte {
	e := newOpEncoder(opSQL)
	e.enc.String(text)
	return e.bytes()
}

func encSQLFailed(text string) []byte {
	e := newOpEncoder(opSQLFailed)
	e.enc.String(text)
	return e.bytes()
}

// applyOp replays one log record against the platform pair. It is the
// replay half of the journal's logged-mutation path: every branch mirrors
// the live call whose acknowledgement wrote the record.
func applyOp(db *engine.DB, p *kb.Platform, payload []byte) error {
	dec := &rdf.SnapshotDecoder{R: bytes.NewReader(payload)}
	kind, err := dec.Byte()
	if err != nil {
		return fmt.Errorf("core: wal record kind: %w", err)
	}
	switch kind {
	case opRegisterUser:
		name, err := dec.String()
		if err != nil {
			return err
		}
		return p.RegisterUser(name)

	case opInsert:
		id, err := dec.String()
		if err != nil {
			return err
		}
		user, err := dec.String()
		if err != nil {
			return err
		}
		var t rdf.Triple
		if t.S, err = dec.Term(); err != nil {
			return err
		}
		if t.P, err = dec.Term(); err != nil {
			return err
		}
		if t.O, err = dec.Term(); err != nil {
			return err
		}
		hasRef, err := dec.Byte()
		if err != nil {
			return err
		}
		var opts []kb.InsertOption
		if hasRef != 0 {
			var ref kb.Reference
			if ref.Title, err = dec.String(); err != nil {
				return err
			}
			if ref.Author, err = dec.String(); err != nil {
				return err
			}
			if ref.Link, err = dec.String(); err != nil {
				return err
			}
			if ref.File, err = dec.String(); err != nil {
				return err
			}
			opts = append(opts, kb.WithReference(ref))
		}
		got, err := p.Insert(user, t, opts...)
		if err != nil {
			return err
		}
		if got != id {
			return fmt.Errorf("core: wal replay diverged: insert produced id %q, log recorded %q", got, id)
		}
		return nil

	case opImport:
		user, err := dec.String()
		if err != nil {
			return err
		}
		id, err := dec.String()
		if err != nil {
			return err
		}
		return p.Import(user, id)

	case opImportBatch:
		user, err := dec.String()
		if err != nil {
			return err
		}
		n, err := dec.Uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(payload)) {
			return fmt.Errorf("core: wal import batch declares %d ids in a %d-byte record", n, len(payload))
		}
		for i := uint64(0); i < n; i++ {
			id, err := dec.String()
			if err != nil {
				return err
			}
			if err := p.Import(user, id); err != nil {
				return err
			}
		}
		return nil

	case opRetract:
		user, err := dec.String()
		if err != nil {
			return err
		}
		id, err := dec.String()
		if err != nil {
			return err
		}
		return p.Retract(user, id)

	case opRegisterQuery:
		owner, err := dec.String()
		if err != nil {
			return err
		}
		name, err := dec.String()
		if err != nil {
			return err
		}
		text, err := dec.String()
		if err != nil {
			return err
		}
		return p.RegisterQuery(owner, name, text)

	case opDeclare:
		k, err := dec.Byte()
		if err != nil {
			return err
		}
		user, err := dec.String()
		if err != nil {
			return err
		}
		iri, err := dec.String()
		if err != nil {
			return err
		}
		switch kb.DeclKind(k) {
		case kb.DeclResource:
			return p.DeclareResource(user, iri)
		case kb.DeclProperty:
			return p.DeclareProperty(user, iri)
		default:
			return fmt.Errorf("core: wal declare record with unknown kind %d", k)
		}

	case opSQL, opSQLFailed:
		text, err := dec.String()
		if err != nil {
			return err
		}
		_, err = db.ExecScript(text)
		switch {
		case kind == opSQL && err != nil:
			return fmt.Errorf("core: wal replay SQL: %w", err)
		case kind == opSQLFailed && err == nil:
			return fmt.Errorf("core: wal replay diverged: %q succeeded, log recorded its failure", text)
		}
		return nil

	default:
		return fmt.Errorf("core: wal record with unknown kind %d", kind)
	}
}
