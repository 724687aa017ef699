// Package noloss implements the paper's No-Loss subscription clustering
// algorithm (§4.5). Instead of rasterising onto a grid, it works directly
// with subscription rectangles: multicast-group regions are *intersections*
// of interest rectangles, so every subscriber attached to a region is
// provably interested in every event inside it — no message is ever wasted.
//
// The printed pseudo-code (Fig 4) is corrupted in the source scan; this is
// the reconstruction from the prose: start from the raw subscription
// rectangles with u(s) = {owner}; each iteration intersects the
// highest-weight regions against the pool, forming s∩t with
// u(s∩t) = u(s) ∪ u(t) (every member's rectangle contains the
// intersection, preserving the no-loss invariant); regions are ranked by
// density w(s) = p(s)·|u(s)| and the pool is pruned to PoolSize entries.
// The final pool, in decreasing weight order, is the paper's list A; the
// matcher uses its first K entries as multicast groups.
//
// p(s) is estimated from a training event sample. Each region carries a
// bitset of the training events it contains, so p(s∩t) is an O(words)
// intersection count: an event lies in s∩t exactly when it lies in both s
// and t.
package noloss

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/space"
	"repro/internal/workload"
)

// Config parameterises the algorithm. The paper's experiment uses
// PoolSize 5000 and 8 iterations (Fig 8 sweeps both).
type Config struct {
	// PoolSize is the number of rectangles kept after each iteration
	// (the paper's "rectangles kept after intersection"). Default 5000.
	PoolSize int
	// Iterations is the number of intersection-refinement passes.
	// Default 8.
	Iterations int
	// Seeds bounds how many of the highest-weight regions are crossed
	// against the whole pool in one iteration. Default 64.
	Seeds int
}

func (c *Config) setDefaults() {
	if c.PoolSize == 0 {
		c.PoolSize = 5000
	}
	if c.Iterations == 0 {
		c.Iterations = 8
	}
	if c.Seeds == 0 {
		c.Seeds = 64
	}
}

func (c Config) validate() error {
	if c.PoolSize < 1 {
		return fmt.Errorf("noloss: PoolSize = %d, need ≥ 1", c.PoolSize)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("noloss: Iterations = %d, need ≥ 0", c.Iterations)
	}
	if c.Seeds < 1 {
		return fmt.Errorf("noloss: Seeds = %d, need ≥ 1", c.Seeds)
	}
	return nil
}

// Group is one no-loss multicast group: a region of the event space and
// the subscribers guaranteed interested in all of it.
type Group struct {
	Rect space.Rect
	// Members is the subscriber set u(s), indexed like
	// workload.World.SubscriberNodes.
	Members *bitset.Set
	// Prob is the empirical publication probability of the region.
	Prob float64
	// Weight is the paper's density w(s) = Prob·|Members|.
	Weight float64
}

// Result is the final pool in decreasing weight order (the paper's list A).
type Result struct {
	Groups []Group
}

// region is the working representation during refinement.
type region struct {
	rect    space.Rect
	members *bitset.Set // u(s)
	events  *bitset.Set // training events inside rect
	weight  float64
}

// Build runs the no-loss clustering over the world's subscriptions using
// the training events for probability estimation.
func Build(w *workload.World, train []workload.Event, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("noloss: nil world")
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("noloss: no training events")
	}
	ns := w.NumSubscribers()
	if ns == 0 {
		return nil, fmt.Errorf("noloss: world has no subscribers")
	}
	ne := len(train)
	norm := 1 / float64(ne)

	// Seed pool: one region per subscription, deduplicating exact-equal
	// rectangles by merging owners.
	pool := make([]*region, 0, len(w.Subs))
	index := map[string]*region{}
	for _, sub := range w.Subs {
		si, ok := w.SubscriberIndex(sub.Owner)
		if !ok {
			return nil, fmt.Errorf("noloss: owner %d not indexed", sub.Owner)
		}
		key := rectKey(sub.Rect)
		if rg := index[key]; rg != nil {
			rg.members.Set(si)
			continue
		}
		rg := &region{
			rect:    sub.Rect.Clone(),
			members: bitset.New(ns),
			events:  bitset.New(ne),
		}
		rg.members.Set(si)
		for ei, e := range train {
			if sub.Rect.Contains(e.Point) {
				rg.events.Set(ei)
			}
		}
		index[key] = rg
		pool = append(pool, rg)
	}
	reweigh(pool, norm)
	sortPool(pool)
	if len(pool) > cfg.PoolSize {
		pool = pool[:cfg.PoolSize]
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		if !refine(&pool, index, cfg, norm) {
			break // fixpoint: no new region entered the pool
		}
	}

	res := &Result{Groups: make([]Group, len(pool))}
	for i, rg := range pool {
		res.Groups[i] = Group{
			Rect:    rg.rect,
			Members: rg.members.Clone(),
			Prob:    float64(rg.events.Count()) * norm,
			Weight:  rg.weight,
		}
	}
	return res, nil
}

// refine performs one intersection pass; it reports whether the pool
// changed.
func refine(pool *[]*region, index map[string]*region, cfg Config, norm float64) bool {
	ps := *pool
	seeds := cfg.Seeds
	if seeds > len(ps) {
		seeds = len(ps)
	}
	// Weight floor a candidate must beat to be worth keeping once the pool
	// is full.
	floor := 0.0
	if len(ps) >= cfg.PoolSize {
		floor = ps[len(ps)-1].weight
	}

	changed := false
	var fresh []*region
	for i := 0; i < seeds; i++ {
		s := ps[i]
		for j := 0; j < len(ps); j++ {
			if i == j {
				continue
			}
			t := ps[j]
			// Upper bounds: members can only union, events only intersect.
			ubProb := float64(min(s.events.Count(), t.events.Count())) * norm
			ubMembers := float64(s.members.Count() + t.members.Count())
			if ubProb*ubMembers <= floor {
				continue
			}
			rect, ok := s.rect.Intersect(t.rect)
			if !ok {
				continue
			}
			evs := s.events.Intersect(t.events)
			mem := s.members.Union(t.members)
			wgt := float64(evs.Count()) * norm * float64(mem.Count())
			if wgt <= floor {
				continue
			}
			key := rectKey(rect)
			if rg := index[key]; rg != nil {
				// Same region discovered again: grow its member set.
				before := rg.members.Count()
				rg.members.UnionWith(mem)
				if rg.members.Count() != before {
					rg.weight = float64(rg.events.Count()) * norm * float64(rg.members.Count())
					changed = true
				}
				continue
			}
			rg := &region{rect: rect, members: mem, events: evs, weight: wgt}
			index[key] = rg
			fresh = append(fresh, rg)
			changed = true
		}
	}
	if !changed {
		return false
	}
	ps = append(ps, fresh...)
	sortPool(ps)
	if len(ps) > cfg.PoolSize {
		for _, rg := range ps[cfg.PoolSize:] {
			delete(index, rectKey(rg.rect))
		}
		ps = ps[:cfg.PoolSize]
	}
	*pool = ps
	return true
}

func reweigh(pool []*region, norm float64) {
	for _, rg := range pool {
		rg.weight = float64(rg.events.Count()) * norm * float64(rg.members.Count())
	}
}

// sortPool orders by decreasing weight with a deterministic tie-break.
func sortPool(pool []*region) {
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].weight != pool[j].weight {
			return pool[i].weight > pool[j].weight
		}
		return rectLess(pool[i].rect, pool[j].rect)
	})
}

func rectLess(a, b space.Rect) bool {
	for d := range a {
		if a[d].Lo != b[d].Lo {
			return a[d].Lo < b[d].Lo
		}
		if a[d].Hi != b[d].Hi {
			return a[d].Hi < b[d].Hi
		}
	}
	return false
}

// rectKey encodes a rectangle into a comparable map key. NaNs never occur
// (space.Interval construction and Intersect preserve orderedness).
func rectKey(r space.Rect) string {
	buf := make([]byte, 0, 16*len(r))
	var tmp [8]byte
	for _, iv := range r {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(iv.Lo))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(iv.Hi))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
