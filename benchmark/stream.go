package main

import (
	"encoding/binary"
	"math"
)

// opKind is one entry of a client's op stream. The load generator only ever
// produces these three; canary upserts are derived from the serial, not stored.
type opKind uint8

const (
	opRead opKind = iota
	opRMW
	opUpsert
	numOpKinds
)

func (k opKind) String() string { return [...]string{"read", "rmw", "upsert"}[k] }

const (
	// streamLen is the number of pre-generated entries per client; the stream
	// is cycled, so generator cost stays outside the measured window.
	streamLen = 1 << 20
	// canaryEvery: the op whose session serial is a multiple of this is an
	// upsert of the session's private canary key with that serial as value.
	canaryEvery = 1024
	// loaderClient tags values written by the set-up load (serial 0).
	loaderClient = 15
	keyBits      = 20 // key indexes (incl. canaries) must fit below 1<<keyBits
)

// rng is splitmix64: the benchmark's only source of randomness, seeded from
// -seed, so the same seed gives the same streams on every host.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks with the Gray et al. method (as YCSB does) and scrambles
// them over the key space so hot keys are not neighbours.
type zipf struct {
	n                  uint64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), half: math.Pow(0.5, theta)}
	for i := uint64(1); i <= n; i++ {
		z.zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + z.half
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zeta)
	return z
}

func (z *zipf) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zeta
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return scramble(rank) % z.n
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xFF51AFD7ED558CCD
	v ^= v >> 33
	v *= 0xC4CEB9FE1A85EC53
	return v ^ v>>33
}

// mix describes how a workload's streams are drawn.
type mix struct {
	keys    int     // loaded key space [0, keys)
	theta   float64 // zipfian parameter; 0 = uniform
	readPct int     // share of reads; the rest are writes of kind write
	write   opKind  // opRMW (counter values) or opUpsert (tagged values)
}

// stream is one client's pre-generated op sequence: kind in the top two bits,
// key index below.
type stream struct {
	ops    []uint32
	client int
	keys   int
	write  opKind
	// allWritesFrom, when non-zero, is the serial from which every read of
	// the stream is issued as the workload's write instead (the suffixes
	// before the crash are writes only).
	allWritesFrom uint64
}

// genStream draws the stream of one client out of clients. In the counter
// workloads every key has one writer: an RMW drawn for key k goes to the key of
// k's group of clients keys that this client owns, reads go anywhere. Two
// sessions that RMW the same key while commits run lose increments on the seed
// (README, findings), and the benchmark runs only workloads on which no
// operation fails.
func genStream(seed uint64, client, clients int, m mix) *stream {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + uint64(client+1)*0xD1B54A32D192ED03}
	var z *zipf
	if m.theta > 0 {
		z = newZipf(uint64(m.keys), m.theta)
	}
	s := &stream{ops: make([]uint32, streamLen), client: client, keys: m.keys, write: m.write}
	for i := range s.ops {
		var k uint64
		if z != nil {
			k = z.next(r)
		} else {
			k = r.next() % uint64(m.keys)
		}
		kind := m.write
		if int(r.next()%100) < m.readPct {
			kind = opRead
		}
		if kind == opRMW && clients > 1 {
			if k = k - k%uint64(clients) + uint64(client); k >= uint64(m.keys) {
				k -= uint64(clients)
			}
		}
		s.ops[i] = uint32(kind)<<30 | uint32(k)
	}
	return s
}

// at returns the op the session issues as serial n (1-based). Every
// canaryEvery-th serial is the canary upsert, whatever the stream holds there.
func (s *stream) at(n uint64) (opKind, uint32) {
	if n%canaryEvery == 0 {
		return opUpsert, s.canary()
	}
	e := s.ops[(n-1)%streamLen]
	kind := opKind(e >> 30)
	if kind == opRead && s.allWritesFrom != 0 && n >= s.allWritesFrom {
		kind = s.write
	}
	return kind, e & (1<<30 - 1)
}

func (s *stream) canary() uint32 { return uint32(s.keys + s.client) }

// keyAt is the key serial n touches.
func (s *stream) keyAt(n uint64) uint32 {
	_, k := s.at(n)
	return k
}

// hash folds the stream into one number (FNV-1a over the entries) so tests
// and the output can show that equal seeds gave equal inputs.
func (s *stream) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, e := range s.ops {
		h = (h ^ uint64(e)) * 1099511628211
	}
	return h
}

func putKey(dst []byte, key uint32) { binary.LittleEndian.PutUint64(dst, uint64(key)) }

// Tagged values (upsert workloads): the first 8 bytes name the write that
// produced them — key index, writing client, that client's serial — and the
// rest of the value repeats those bytes, so any value read back can be checked
// against the stream that is supposed to have written it.
func makeTag(key uint32, client int, n uint64) uint64 {
	return uint64(key) | uint64(client)<<keyBits | n<<(keyBits+4)
}

func splitTag(t uint64) (key uint32, client int, n uint64) {
	return uint32(t & (1<<keyBits - 1)), int(t >> keyBits & 15), t >> (keyBits + 4)
}

func fillTagged(dst []byte, tag uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], tag)
	}
}

// checkTagged reports whether v is a value some stream wrote to key: the tag
// names key, every filler word repeats the tag, and the named write exists —
// either the set-up load or serial n of a client whose stream has an upsert of
// key at n. limit, when non-nil, bounds each client's serial (the recovered
// CPR point: a value from beyond it must not be visible).
func checkTagged(v []byte, key uint32, size int, streams []*stream, limit []uint64) bool {
	if len(v) != size {
		return false
	}
	tag := binary.LittleEndian.Uint64(v)
	for i := 8; i+8 <= len(v); i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != tag {
			return false
		}
	}
	k, c, n := splitTag(tag)
	if k != key {
		return false
	}
	if c == loaderClient {
		return n == 0
	}
	if c >= len(streams) || n == 0 {
		return false
	}
	if limit != nil && n > limit[c] {
		return false
	}
	kind, wk := streams[c].at(n)
	return kind == opUpsert && wk == key
}

// Counter values (RMW workloads): loaded as key<<32, each RMW adds 1, so the
// high half must always name the key and the low halves sum to the RMW count.
func counterBase(key uint32) uint64 { return uint64(key) << 32 }

func checkCounter(v []byte, key uint32) bool {
	return len(v) == 8 && uint32(binary.LittleEndian.Uint64(v)>>32) == key
}

func leU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
