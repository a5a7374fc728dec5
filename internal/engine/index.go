package engine

import (
	"fmt"

	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/wal"
)

// Secondary-index DDL. Index structures are derived state: the WAL and
// snapshots carry only the CREATE INDEX statement text (like view
// definitions), and recovery rebuilds the contents from the replayed
// rows via the attach-time backfill. Creating or dropping an index never
// changes any query result, so neither operation bumps the table's
// epoch — cached results stay valid across index DDL.

// CreateIndex validates def, attaches the index structure to the table
// (backfilling it from the stored rows) and registers the definition in
// the catalog. def.Cols must already be resolved against the table's
// schema; def.Def is the CREATE INDEX statement text logged for
// recovery. Lock order: table write lock, then e.mu (the DDL logging
// point), with catalog.mu below both.
func (e *Engine) CreateIndex(def *catalog.IndexDef) error {
	rel, err := e.cat.Table(def.Table)
	if err != nil {
		return err
	}
	schema := rel.Schema()
	for _, c := range def.Cols {
		if c < 0 || c >= len(schema.Cols) {
			return fmt.Errorf("engine: index %q: column %d out of range for table %q", def.Name, c, def.Table)
		}
	}
	if len(def.Cols) == 0 {
		return fmt.Errorf("engine: index %q: no columns", def.Name)
	}
	var idx index.Index
	switch def.Kind {
	case index.KindOrdered:
		idx = index.NewOrdered(def.Cols)
	default:
		idx = index.NewHash(def.Cols)
	}

	rel.Lock()
	e.mu.Lock()
	if cur, err := e.cat.Table(def.Table); err != nil || cur != rel {
		// Lost a race with DROP TABLE (possibly followed by a re-create
		// with a different relation): the locked rel is no longer the
		// cataloged one.
		e.mu.Unlock()
		rel.Unlock()
		if err == nil {
			err = fmt.Errorf("%w: %q", catalog.ErrNoSuchTable, def.Table)
		}
		return err
	}
	if err := e.cat.AddIndex(def); err != nil {
		e.mu.Unlock()
		rel.Unlock()
		return err
	}
	var seq uint64
	if def.Def != "" {
		// An index with no statement text (programmatic API) is
		// memory-only, like a def-less view: nothing to log or recover.
		seq, err = e.walAppend(&wal.Record{Kind: wal.KindCreateIndex, Name: def.Name, Def: def.Def})
		if err != nil {
			e.cat.DropIndex(def.Name) // un-apply: the log is poisoned
			e.mu.Unlock()
			rel.Unlock()
			return err
		}
	}
	rel.AttachIndex(def.Name, idx)
	e.mu.Unlock()
	rel.Unlock()
	if err := e.walSync(seq); err != nil {
		return e.walFail(err, true)
	}
	return nil
}

// DropIndex detaches the named index from its table and removes its
// catalog entry.
func (e *Engine) DropIndex(name string) error {
	def, err := e.cat.Index(name)
	if err != nil {
		return err
	}
	rel, relErr := e.cat.Table(def.Table)
	if relErr != nil {
		// The table vanished under the definition (shouldn't happen —
		// DropTable cascades), so only the registry entry needs removing.
		_, err := e.cat.DropIndex(name)
		return err
	}
	rel.Lock()
	e.mu.Lock()
	if _, err := e.cat.Index(name); err != nil {
		e.mu.Unlock()
		rel.Unlock()
		return err
	}
	seq, err := e.walAppend(&wal.Record{Kind: wal.KindDropIndex, Name: name})
	if err != nil {
		e.mu.Unlock()
		rel.Unlock()
		return err
	}
	e.cat.DropIndex(name)
	rel.DetachIndex(name)
	e.mu.Unlock()
	rel.Unlock()
	if err := e.walSync(seq); err != nil {
		return e.walFail(err, true)
	}
	return nil
}

// TableCard reports the table's stored cardinality (expired-but-unswept
// rows included — they cost a scan exactly like live ones), the
// planner's primary cost input. It takes no table lock: planning on a
// result-cache miss must not make a waiting writer wait longer.
func (e *Engine) TableCard(name string) (int, bool) {
	rel, err := e.cat.Table(name)
	if err != nil {
		return 0, false
	}
	return rel.StoredLen(), true
}

// recoverIndex recompiles one CREATE INDEX statement through the SQL
// layer during replay, exactly like recoverView: the statement re-runs
// CreateIndex with e.recovering set, so nothing is re-logged and the
// attach-time backfill rebuilds the contents from the rows replayed so
// far (later replayed inserts maintain it incrementally).
func (e *Engine) recoverIndex(name, def string) error {
	if e.compileView == nil {
		return fmt.Errorf("engine: cannot recover index %s: no statement compiler", name)
	}
	if err := e.compileView(def); err != nil {
		return fmt.Errorf("engine: recover index %s: %w", name, err)
	}
	return nil
}
