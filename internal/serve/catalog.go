package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"adjstream"
)

// ErrUnknownGraph reports a request naming no catalog dataset; the HTTP
// layer maps it to 404.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// ErrDuplicateGraph reports an Add or LoadFile under a name the catalog
// already holds. Callers that reload catalogs dispatch on it with
// errors.Is instead of matching message strings.
var ErrDuplicateGraph = errors.New("serve: duplicate graph")

// Info is the public description of a catalog dataset.
type Info struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// N is the vertex count.
	N int `json:"n"`
	// M is the edge count.
	M int64 `json:"m"`
	// Lists is the number of adjacency lists in the canonical stream.
	Lists int `json:"lists"`
	// Fingerprint is the content hash of the graph (16 hex digits), the
	// value that keys cached results to the graph's edges rather than its
	// catalog name.
	Fingerprint string `json:"fingerprint"`
	// Version is the monotonically increasing graph version; it advances
	// whenever an ingested edge delta is merged (see MutableDataset).
	Version uint64 `json:"version"`
}

// Dataset is one immutable version of a catalog graph: the graph itself
// plus its canonical sorted stream, content fingerprint, and version
// number, built once when the version is published and shared read-only
// across requests (streams are immutable and safe for concurrent replay).
// Every estimate pins exactly one Dataset for its whole lifetime — cache
// key, admission, and run all read the same snapshot — so a concurrent
// ingest merge can never shift the graph under an in-flight request.
type Dataset struct {
	name    string
	g       *adjstream.Graph
	sorted  *adjstream.Stream
	fp      uint64
	version uint64
}

// Name returns the catalog key.
func (d *Dataset) Name() string { return d.name }

// Version returns the dataset's graph version (1 for a freshly loaded
// graph; +1 per merged ingest delta).
func (d *Dataset) Version() uint64 { return d.version }

// Graph returns the immutable graph behind this version.
func (d *Dataset) Graph() *adjstream.Graph { return d.g }

// Fingerprint returns the content hash of the dataset's graph: a 64-bit
// word hash over the vertex count, edge count, and every adjacency list in
// canonical sorted order. Two datasets share a fingerprint iff they hold
// the same labeled graph, so a cache entry keyed by (name, fingerprint)
// can never survive a reload that changes the edges behind a name.
func (d *Dataset) Fingerprint() uint64 { return d.fp }

// fingerprintGraph hashes g's canonical adjacency structure: n, m, then
// each vertex name followed by its sorted row, read straight from the
// graph's rows one 64-bit word at a time.
func fingerprintGraph(g *adjstream.Graph) uint64 {
	h := mixWord(mixWord(14695981039346656037, uint64(g.N())), uint64(g.M()))
	off, nbrs := g.Rows()
	for i, u := range g.Vertices() {
		h = mixWord(h, uint64(u))
		for _, v := range nbrs[off[i]:off[i+1]] {
			h = mixWord(h, uint64(v))
		}
	}
	return h
}

// mixWord folds the word w into the running hash h. Both steps after the
// xor (an odd multiply, an xor-shift) are bijections of h, so words that
// differ always leave different states.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Info returns the dataset description.
func (d *Dataset) Info() Info {
	return Info{
		Name:        d.name,
		N:           d.g.N(),
		M:           d.g.M(),
		Lists:       d.sorted.Lists(),
		Fingerprint: fmt.Sprintf("%016x", d.fp),
		Version:     d.version,
	}
}

// newDataset builds the immutable snapshot for one graph version.
func newDataset(name string, g *adjstream.Graph, version uint64) *Dataset {
	return &Dataset{
		name:    name,
		g:       g,
		sorted:  adjstream.SortedStream(g),
		fp:      fingerprintGraph(g),
		version: version,
	}
}

// Stream returns the stream for the requested order: "" or "sorted" is the
// cached canonical stream (no per-request work), "random" materializes a
// fresh seeded random order for this request.
func (d *Dataset) Stream(order string, seed uint64) (*adjstream.Stream, error) {
	switch order {
	case "", "sorted":
		return d.sorted, nil
	case "random":
		return adjstream.RandomStream(d.g, seed), nil
	default:
		return nil, fmt.Errorf("%w: unknown order %q (want sorted or random)", adjstream.ErrInvalidOptions, order)
	}
}

// Catalog is a named set of mutable datasets. The set of names is fixed
// after loading (populated before Listen), but each entry can advance
// through graph versions via live ingestion; Get always returns the
// current immutable snapshot. Adds and lookups are safe for concurrent
// use.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*MutableDataset

	// Merge policy stamped onto datasets at Add time; set it with
	// SetMergePolicy before loading graphs.
	mergeThreshold int
	maxVersions    int
}

// NewCatalog returns an empty catalog with the default merge policy.
func NewCatalog() *Catalog {
	return &Catalog{
		byName:         make(map[string]*MutableDataset),
		mergeThreshold: DefaultMergeThreshold,
		maxVersions:    DefaultMaxVersions,
	}
}

// SetMergePolicy configures how datasets added afterwards fold ingested
// deltas: a merge is forced once threshold net edge ops are pending, and
// at most maxVersions published snapshots are retained for version-pinned
// shard requests. Call it before loading graphs; values < 1 keep the
// current setting.
func (c *Catalog) SetMergePolicy(threshold, maxVersions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if threshold >= 1 {
		c.mergeThreshold = threshold
	}
	if maxVersions >= 1 {
		c.maxVersions = maxVersions
	}
}

// Add registers g under name at version 1, building the cached sorted
// stream.
func (c *Catalog) Add(name string, g *adjstream.Graph) (*Dataset, error) {
	return c.AddAt(name, g, 1)
}

// AddAt registers g under name at an explicit starting version. It exists
// so a catalog can be reconstructed with version numbers matching another
// node's history (equivalence tests cold-load a graph at version V and
// compare byte-for-byte against estimates pinned to V).
func (c *Catalog) AddAt(name string, g *adjstream.Graph, version uint64) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty dataset name")
	}
	if version == 0 {
		return nil, fmt.Errorf("serve: graph versions start at 1")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("%w %q", ErrDuplicateGraph, name)
	}
	md := newMutableDataset(name, g, version, c.mergeThreshold, c.maxVersions)
	c.byName[name] = md
	return md.Current(), nil
}

// LoadFile reads an edge-list file and registers it under name.
func (c *Catalog) LoadFile(name, path string) error {
	g, err := adjstream.ReadEdgeListFile(path)
	if err != nil {
		return err
	}
	_, err = c.Add(name, g)
	return err
}

// LoadDir loads every *.edges and *.txt edge-list file in dir, naming each
// dataset after its file base name without the extension. It returns the
// number of datasets loaded.
func (c *Catalog) LoadDir(dir string) (int, error) {
	var paths []string
	for _, pat := range []string{"*.edges", "*.txt"} {
		got, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return 0, fmt.Errorf("serve: %w", err)
		}
		paths = append(paths, got...)
	}
	sort.Strings(paths)
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if err := c.LoadFile(name, p); err != nil {
			return 0, fmt.Errorf("serve: loading %s: %w", p, err)
		}
	}
	return len(paths), nil
}

// Get looks up a dataset and returns its current immutable snapshot; ok
// is false for unknown names. Callers pin the returned *Dataset for the
// whole request, so later merges never shift the graph under them.
func (c *Catalog) Get(name string) (d *Dataset, ok bool) {
	c.mu.RLock()
	md, ok := c.byName[name]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return md.Current(), true
}

// GetMutable looks up the mutable dataset behind a name; ok is false for
// unknown names.
func (c *Catalog) GetMutable(name string) (md *MutableDataset, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	md, ok = c.byName[name]
	return md, ok
}

// Len returns the number of datasets.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byName)
}

// Infos lists every dataset, sorted by name.
func (c *Catalog) Infos() []Info {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Info, 0, len(c.byName))
	for _, md := range c.byName {
		out = append(out, md.Current().Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
