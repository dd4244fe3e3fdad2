package pager

import "container/list"

// poolModel is the reference buffer pool: per stripe a map of the
// resident pages of every file with their pins, the stripe's share of
// the capacity the open files bring, and a policy that orders the
// resident frames for eviction. An admission evicts the policy's victim
// while the stripe is at its share and holds an unpinned frame; a
// release that leaves a stripe over its share, and a close that takes a
// share back, evict down to it; a write or a failed read drops the
// page's copy, pinned or not. It is the Cache's order of business,
// frame reuse and unlocked reads unknown to it. At one stripe, the
// Cache's one queue, and with SIEVE, the Cache's own policy, it
// predicts every eviction the Cache makes; with another policy it is
// the replayer's pool of that policy at the same frames. More stripes
// model the eight-stripe pool that recorded testdata/query.trace.
type poolModel struct {
	stripes []modelStripe
	pages   int // the sum of the open files' shares
	files   []*modelFile
	evicted func(pageKey) // hears of every eviction when set
}

type modelFile struct {
	open    bool
	share   int
	noCache bool
	st      Stats // since the file was last opened
}

// pageKey names a page of the cache: file is the index in poolModel.files.
type pageKey struct {
	file int
	id   PageID
}

type modelStripe struct {
	cap      int
	frames   map[pageKey]*modelFrame
	unpinned int // resident frames without a pin
	pol      policy
}

type modelFrame struct {
	pins int
}

func (s *modelStripe) pinned(k pageKey) bool { return s.frames[k].pins > 0 }

// policy orders one model stripe's resident frames for eviction. The
// model owns residency, pins and capacity, and asks for a victim only
// while the stripe holds an unpinned frame.
type policy interface {
	admit(k pageKey)              // k enters, pinned
	hit(k pageKey, unpinned bool) // k, resident, is pinned again; unpinned: it had no pin
	unpin(k pageKey)              // k's last pin is released
	victim(s *modelStripe) pageKey
	remove(k pageKey) // k leaves without an eviction: its file closed, it was written, its read failed, or caching is off
}

func newPoolModel(stripes int, newPolicy func() policy) *poolModel {
	m := &poolModel{stripes: make([]modelStripe, stripes)}
	for i := range m.stripes {
		m.stripes[i] = modelStripe{frames: map[pageKey]*modelFrame{}, pol: newPolicy()}
	}
	return m
}

func (m *poolModel) stripe(id PageID) *modelStripe { return &m.stripes[int(id%PageID(len(m.stripes)))] }

// resize sets the capacity and each stripe's share of it, then evicts
// every stripe down to its share.
func (m *poolModel) resize(pages int) {
	m.pages = pages
	n := len(m.stripes)
	for i := range m.stripes {
		s := &m.stripes[i]
		s.cap = pages / n
		if i < pages%n {
			s.cap++
		}
		m.trim(s)
	}
}

func (m *poolModel) evict(s *modelStripe) {
	victim := s.pol.victim(s)
	delete(s.frames, victim)
	s.unpinned--
	if m.evicted != nil {
		m.evicted(victim)
	}
}

func (m *poolModel) trim(s *modelStripe) {
	for len(s.frames) > s.cap && s.unpinned > 0 {
		m.evict(s)
	}
}

func (m *poolModel) open(file, share int, noCache bool) {
	for len(m.files) <= file {
		m.files = append(m.files, &modelFile{})
	}
	*m.files[file] = modelFile{open: true, share: share, noCache: noCache}
	m.resize(m.pages + share)
}

// close drops an open file's frames, pinned or not, and its share.
func (m *poolModel) close(file int) {
	for i := range m.stripes {
		for k := range m.stripes[i].frames {
			if k.file == file {
				m.drop(k)
			}
		}
	}
	m.files[file].open = false
	m.resize(m.pages - m.files[file].share)
}

// drop takes k's copy, if resident, out of the pool, pinned or not.
func (m *poolModel) drop(k pageKey) {
	s := m.stripe(k.id)
	f := s.frames[k]
	if f == nil {
		return
	}
	s.pol.remove(k)
	if f.pins == 0 {
		s.unpinned--
	}
	delete(s.frames, k)
}

func (m *poolModel) admit(k pageKey) {
	s := m.stripe(k.id)
	for len(s.frames) >= s.cap && s.unpinned > 0 {
		m.evict(s)
	}
	s.frames[k] = &modelFrame{pins: 1}
	s.pol.admit(k)
}

// get pins k, admitting it on a miss, and reports whether it hit.
func (m *poolModel) get(k pageKey) bool {
	s, st := m.stripe(k.id), &m.files[k.file].st
	if f := s.frames[k]; f != nil {
		st.Hits++
		s.pol.hit(k, f.pins == 0)
		if f.pins == 0 {
			s.unpinned--
		}
		f.pins++
		return true
	}
	st.Misses++
	st.Reads++
	m.admit(k)
	return false
}

// alloc is a write that appends k to its file: nothing enters the pool.
func (m *poolModel) alloc(k pageKey) {
	m.files[k.file].st.Allocs++
	m.files[k.file].st.Writes++
}

// write is a write of k, a page the file has: its copy is dropped.
func (m *poolModel) write(k pageKey) {
	m.files[k.file].st.Writes++
	m.drop(k)
}

func (m *poolModel) release(k pageKey) {
	s := m.stripe(k.id)
	f := s.frames[k]
	if f.pins--; f.pins > 0 {
		return
	}
	s.unpinned++
	if m.files[k.file].noCache {
		m.drop(k)
		return
	}
	s.pol.unpin(k)
	m.trim(s)
}

// lruPolicy keeps the unpinned frames most recently released first and
// evicts from the back.
type lruPolicy struct {
	l  *list.List // of pageKey
	at map[pageKey]*list.Element
}

func newLRU() policy { return &lruPolicy{l: list.New(), at: map[pageKey]*list.Element{}} }

func (p *lruPolicy) admit(pageKey) {}

func (p *lruPolicy) hit(k pageKey, unpinned bool) {
	if unpinned {
		p.remove(k)
	}
}

func (p *lruPolicy) unpin(k pageKey) { p.at[k] = p.l.PushFront(k) }

func (p *lruPolicy) victim(*modelStripe) pageKey {
	k := p.l.Back().Value.(pageKey)
	p.remove(k)
	return k
}

func (p *lruPolicy) remove(k pageKey) {
	if e, ok := p.at[k]; ok {
		p.l.Remove(e)
		delete(p.at, k)
	}
}

// sievePolicy is SIEVE (Zhang et al., NSDI 2024): every resident frame
// in one FIFO queue, newest at the front, with a visited bit a hit sets.
// The hand walks from the oldest frame toward the newest, wrapping at
// the front, skips pinned frames, clears set bits and evicts the first
// unpinned frame whose bit is clear; it then rests on the next newer
// frame (nil: start at the back). clockPolicy is the same walk over a
// ring that admits each frame just behind the hand instead of at the
// front, so a new frame waits a whole turn.
type sievePolicy struct {
	q       *list.List // of pageKey, newest first
	at      map[pageKey]*list.Element
	visited map[pageKey]bool
	hand    *list.Element
	clock   bool
}

func newSIEVE() policy {
	return &sievePolicy{q: list.New(), at: map[pageKey]*list.Element{}, visited: map[pageKey]bool{}}
}

func newCLOCK() policy {
	p := newSIEVE().(*sievePolicy)
	p.clock = true
	return p
}

func (p *sievePolicy) admit(k pageKey) {
	if p.clock && p.hand != nil {
		p.at[k] = p.q.InsertAfter(k, p.hand)
	} else {
		p.at[k] = p.q.PushFront(k)
	}
	p.visited[k] = false
}

func (p *sievePolicy) hit(k pageKey, _ bool) { p.visited[k] = true }

func (p *sievePolicy) unpin(pageKey) {}

func (p *sievePolicy) victim(s *modelStripe) pageKey {
	e := p.hand
	if e == nil {
		e = p.q.Back()
	}
	for {
		k := e.Value.(pageKey)
		if !s.pinned(k) {
			if !p.visited[k] {
				break
			}
			p.visited[k] = false
		}
		if e = e.Prev(); e == nil {
			e = p.q.Back()
		}
	}
	k := e.Value.(pageKey)
	p.hand = e
	p.remove(k) // the hand moves on to the next newer frame
	return k
}

func (p *sievePolicy) remove(k pageKey) {
	e := p.at[k]
	if p.hand == e {
		p.hand = e.Prev()
	}
	p.q.Remove(e)
	delete(p.at, k)
	delete(p.visited, k)
}

// twoQPolicy is 2Q (Johnson and Shasha, VLDB 1994) at Kin = 25 % and
// Kout = 50 % of the stripe's share: a page enters a FIFO, A1in, and a
// hit there moves nothing; one evicted from A1in leaves its key in a
// ghost FIFO, A1out, and a miss on a key still there enters Am, an LRU
// that a hit moves to the front. The victim is A1in's oldest unpinned
// frame while A1in holds more than Kin frames, otherwise Am's least
// recently used; a queue with no unpinned frame yields to the other.
type twoQPolicy struct {
	in, am, out *list.List // of pageKey, newest first
	at, outAt   map[pageKey]*list.Element
	inA1        map[pageKey]bool
}

func new2Q() policy {
	return &twoQPolicy{
		in: list.New(), am: list.New(), out: list.New(),
		at: map[pageKey]*list.Element{}, outAt: map[pageKey]*list.Element{}, inA1: map[pageKey]bool{},
	}
}

func (p *twoQPolicy) admit(k pageKey) {
	if e, ok := p.outAt[k]; ok {
		p.out.Remove(e)
		delete(p.outAt, k)
		p.at[k] = p.am.PushFront(k)
		return
	}
	p.at[k] = p.in.PushFront(k)
	p.inA1[k] = true
}

func (p *twoQPolicy) hit(k pageKey, _ bool) {
	if !p.inA1[k] {
		p.am.MoveToFront(p.at[k])
	}
}

func (p *twoQPolicy) unpin(pageKey) {}

func (p *twoQPolicy) victim(s *modelStripe) pageKey {
	queues := [2]*list.List{p.am, p.in}
	if p.in.Len() > max(1, s.cap/4) {
		queues = [2]*list.List{p.in, p.am}
	}
	for _, q := range queues {
		for e := q.Back(); e != nil; e = e.Prev() {
			k := e.Value.(pageKey)
			if s.pinned(k) {
				continue
			}
			if p.inA1[k] {
				p.outAt[k] = p.out.PushFront(k)
				for p.out.Len() > max(1, s.cap/2) {
					delete(p.outAt, p.out.Remove(p.out.Back()).(pageKey))
				}
			}
			p.remove(k)
			return k
		}
	}
	panic("2Q: no unpinned frame")
}

func (p *twoQPolicy) remove(k pageKey) {
	if p.inA1[k] {
		p.in.Remove(p.at[k])
		delete(p.inA1, k)
	} else {
		p.am.Remove(p.at[k])
	}
	delete(p.at, k)
}
