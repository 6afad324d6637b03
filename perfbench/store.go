package main

import (
	"strings"
	"sync/atomic"

	"gem5art/internal/database/storage"
)

// tracedStore is the timing decorator the traced run hands to every
// consumer of the database layer (artifact registry, simulation cache,
// broker queue, gateway). Each call becomes a database.read or
// database.write span carrying its collection and operation.
type tracedStore struct {
	inner storage.Store
	t     *Tracer
	// scope is the trace for calls that name no run or launch, and
	// parent the span of the pass or cycle they happen under.
	scope  atomic.Value // string
	parent atomic.Uint64
}

func newTracedStore(inner storage.Store, t *Tracer) *tracedStore {
	s := &tracedStore{inner: inner, t: t}
	s.scope.Store("")
	return s
}

// under attributes later calls without their own trace to scope and
// parents them on the given span.
func (s *tracedStore) under(scope string, parent uint64) {
	s.scope.Store(scope)
	s.parent.Store(parent)
}

// call times fn as one database span.
func (s *tracedStore) call(kind, coll, op string, doc storage.Doc, fn func()) {
	trace := s.traceFor(doc)
	sp := s.t.Begin("database."+kind, trace, s.parent.Load())
	fn()
	sp.End(0, map[string]string{"coll": coll, "op": op})
}

// traceFor finds the run or launch a document or filter belongs to:
// gateway documents carry launch and job IDs, run documents their run
// ID (bound to the cell's trace at launch).
func (s *tracedStore) traceFor(d storage.Doc) string {
	for _, k := range []string{"launch_id", "job_id", "_id"} {
		v, ok := d[k].(string)
		if !ok {
			continue
		}
		if l := launchOfJob(v); l != "" {
			return l
		}
		if tr := s.t.traceOf(v); tr != "" {
			return tr
		}
		if k == "launch_id" {
			return v
		}
	}
	return s.scope.Load().(string)
}

// launchOfJob extracts the launch ID from a gateway job ID
// (g/<tenant>/<launch>/<index>), or "".
func launchOfJob(id string) string {
	if !strings.HasPrefix(id, "g/") {
		return ""
	}
	parts := strings.SplitN(id, "/", 4)
	if len(parts) < 4 {
		return ""
	}
	return parts[2]
}

func (s *tracedStore) Collection(name string) storage.Collection {
	return &tracedCollection{inner: s.inner.Collection(name), s: s, name: name}
}

func (s *tracedStore) CollectionNames() []string {
	var out []string
	s.call("read", "_store", "CollectionNames", nil, func() { out = s.inner.CollectionNames() })
	return out
}

func (s *tracedStore) Files() storage.FileStore { return &tracedFiles{inner: s.inner.Files(), s: s} }

func (s *tracedStore) Flush() (err error) {
	s.call("write", "_store", "Flush", nil, func() { err = s.inner.Flush() })
	return err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

type tracedCollection struct {
	inner storage.Collection
	s     *tracedStore
	name  string
}

func (c *tracedCollection) read(op string, filter storage.Doc, fn func()) {
	c.s.call("read", c.name, op, filter, fn)
}

func (c *tracedCollection) write(op string, doc storage.Doc, fn func()) {
	c.s.call("write", c.name, op, doc, fn)
}

func (c *tracedCollection) Name() string { return c.inner.Name() }

func (c *tracedCollection) CreateUniqueIndex(keys ...string) {
	c.write("CreateUniqueIndex", nil, func() { c.inner.CreateUniqueIndex(keys...) })
}

func (c *tracedCollection) InsertOne(d storage.Doc) (id string, err error) {
	c.write("InsertOne", d, func() { id, err = c.inner.InsertOne(d) })
	return id, err
}

func (c *tracedCollection) InsertMany(ds []storage.Doc) (err error) {
	var first storage.Doc
	if len(ds) > 0 {
		first = ds[0]
	}
	c.write("InsertMany", first, func() { err = c.inner.InsertMany(ds) })
	return err
}

func (c *tracedCollection) Find(filter storage.Doc) (out []storage.Doc) {
	c.read("Find", filter, func() { out = c.inner.Find(filter) })
	return out
}

func (c *tracedCollection) FindOne(filter storage.Doc) (out storage.Doc) {
	c.read("FindOne", filter, func() { out = c.inner.FindOne(filter) })
	return out
}

func (c *tracedCollection) FindWith(filter storage.Doc, opts storage.FindOptions) (out []storage.Doc) {
	c.read("FindWith", filter, func() { out = c.inner.FindWith(filter, opts) })
	return out
}

func (c *tracedCollection) Count(filter storage.Doc) (n int) {
	c.read("Count", filter, func() { n = c.inner.Count(filter) })
	return n
}

func (c *tracedCollection) UpdateOne(filter, set storage.Doc) (ok bool, err error) {
	c.write("UpdateOne", filter, func() { ok, err = c.inner.UpdateOne(filter, set) })
	return ok, err
}

func (c *tracedCollection) DeleteMany(filter storage.Doc) (n int) {
	c.write("DeleteMany", filter, func() { n = c.inner.DeleteMany(filter) })
	return n
}

func (c *tracedCollection) Distinct(key string, filter storage.Doc) (out []any) {
	c.read("Distinct", filter, func() { out = c.inner.Distinct(key, filter) })
	return out
}

func (c *tracedCollection) AggregateKey(filter storage.Doc, key string) (out storage.Aggregate) {
	c.read("AggregateKey", filter, func() { out = c.inner.AggregateKey(filter, key) })
	return out
}

// filesColl is the collection label blob-store calls are reported under.
const filesColl = "files"

type tracedFiles struct {
	inner storage.FileStore
	s     *tracedStore
}

func (f *tracedFiles) Put(name string, data []byte) (hash string, err error) {
	f.s.call("write", filesColl, "Put", nil, func() { hash, err = f.inner.Put(name, data) })
	return hash, err
}

func (f *tracedFiles) Get(hash string) (data []byte, err error) {
	f.s.call("read", filesColl, "Get", nil, func() { data, err = f.inner.Get(hash) })
	return data, err
}

func (f *tracedFiles) Exists(hash string) (ok bool) {
	f.s.call("read", filesColl, "Exists", nil, func() { ok = f.inner.Exists(hash) })
	return ok
}

func (f *tracedFiles) Stat(hash string) (m storage.FileMeta, ok bool) {
	f.s.call("read", filesColl, "Stat", nil, func() { m, ok = f.inner.Stat(hash) })
	return m, ok
}

func (f *tracedFiles) List() (out []storage.FileMeta) {
	f.s.call("read", filesColl, "List", nil, func() { out = f.inner.List() })
	return out
}

func (f *tracedFiles) TotalBytes() (n int) {
	f.s.call("read", filesColl, "TotalBytes", nil, func() { n = f.inner.TotalBytes() })
	return n
}
