// Package service is the sharded KV tier ("hoopd") over the engine's
// Shard abstraction: a consistent-hash ring routes a keyspace across N
// independent engine shards (one goroutine + one engine + one
// persist-scheme instance each), with bounded per-shard admission queues,
// a configurable backpressure policy, and fleet-wide latency aggregation
// via sim.Histogram.Merge.
//
// Two submission paths exist, with different determinism guarantees:
//
//   - Submit routes by key over the ring — the general service API. For a
//     fixed shard count the run is deterministic (each shard's request
//     subsequence is a pure function of the submitted stream), but a
//     shard's contents change when the ring is resized.
//   - SubmitTo addresses a shard directly. hoopd's soak drives one
//     independent open-loop stream per shard this way, seeded by
//     engine.ShardSeed(runSeed, shard), which makes shard j's entire
//     simulated run byte-identical regardless of how many other shards
//     exist — the property the `-shards 1` vs `-shards N` tests lock.
package service

import "math/bits"

// JumpHash is the Lamport–Veach jump consistent hash: it maps key to a
// bucket in [0, buckets) such that growing from n to n+1 buckets moves
// only ~1/(n+1) of the keys, all of them onto the new bucket. It is the
// whole consistent-hash ring — no vnode tables, no allocation, O(ln n).
func JumpHash(key uint64, buckets int) int {
	if buckets <= 1 {
		return 0
	}
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// mix64 is the splitmix64 finalizer: a bijective scramble applied to keys
// before jump hashing so that dense sequential keyspaces (the common KV
// case) spread uniformly instead of tracking JumpHash's arithmetic.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Ring routes keys to shards. The zero Ring is not valid; build with
// NewRing. A Ring is a pure value: Route depends only on (key, shard
// count), never on routing history, so any permutation of a key set
// produces the same key→shard assignment.
type Ring struct {
	shards int
}

// NewRing returns a ring over n shards (n >= 1).
func NewRing(n int) Ring {
	if n < 1 {
		panic("service: ring needs at least one shard")
	}
	return Ring{shards: n}
}

// Shards reports the ring size.
func (r Ring) Shards() int { return r.shards }

// Route returns the shard owning key.
func (r Ring) Route(key uint64) int {
	return JumpHash(mix64(key), r.shards)
}

// suggestBuckets sizes a chained hash table for about n expected entries:
// the next power of two of n/2, at least 16. bits.Len64 keeps it integral.
func suggestBuckets(n uint64) int {
	if n < 32 {
		return 16
	}
	return 1 << bits.Len64(n/2-1)
}
