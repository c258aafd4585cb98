package service

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/pmem"
	"hoop/internal/structures"
)

// KV opcodes for engine.ShardRequest.Kind. An insert is a Put of a key
// beyond the preloaded range; the handler does not distinguish.
const (
	OpGet uint8 = iota
	OpPut
	OpUpdate // single-word read-modify-write; falls back to Put on a miss
	OpDelete
)

// KVConfig sizes one shard's key-value table.
type KVConfig struct {
	// Keys is the keyspace size: per-shard when Ring is nil (each shard
	// owns local keys [0, Keys)), global when Ring is set (the shard owns
	// the subset of [0, Keys) the ring routes to it).
	Keys uint64
	// ValBytes is the fixed value size (word multiple; default 64).
	ValBytes int
	// Preload is how many keys of [0, Preload) exist before the load
	// starts (subject to ring ownership in ring mode). Default Keys/2.
	Preload uint64
	// Ring, when non-nil, switches the handler to global-keyspace mode.
	Ring *Ring
	// Buckets overrides the hash-table bucket count (default sized from
	// the expected per-shard entry count).
	Buckets int
}

func (c *KVConfig) defaults() {
	if c.ValBytes == 0 {
		c.ValBytes = 64
	}
	if c.Preload == 0 {
		c.Preload = c.Keys / 2
	}
	if c.Buckets == 0 {
		expected := c.Keys
		if c.Ring != nil {
			expected = c.Keys / uint64(c.Ring.Shards())
		}
		c.Buckets = suggestBuckets(expected)
	}
}

// KVHandler serves KV requests against one shard's persistent hash map.
// One instance per shard; all methods run on the shard's serving
// goroutine. Every request — reads included — executes as one transaction,
// so fleet goodput is exactly the commit rate.
type KVHandler struct {
	cfg   KVConfig
	shard int
	table *structures.HashMap
	buf   []byte

	// Op counters, readable after Quiesce (same discipline as
	// Shard.Executed).
	Gets, GetMisses, Puts, Updates, Deletes int64
}

// NewKVHandler validates cfg and returns a handler for use as a shard's
// engine.ShardHandler.
func NewKVHandler(cfg KVConfig) (*KVHandler, error) {
	cfg.defaults()
	if cfg.Keys == 0 {
		return nil, fmt.Errorf("service: KVConfig.Keys must be positive")
	}
	if cfg.ValBytes <= 0 || cfg.ValBytes%mem.WordSize != 0 {
		return nil, fmt.Errorf("service: KVConfig.ValBytes (%d) must be a positive word multiple", cfg.ValBytes)
	}
	if cfg.Preload > cfg.Keys {
		return nil, fmt.Errorf("service: KVConfig.Preload (%d) exceeds Keys (%d)", cfg.Preload, cfg.Keys)
	}
	return &KVHandler{cfg: cfg, buf: make([]byte, cfg.ValBytes)}, nil
}

// owns reports whether this shard stores key.
func (h *KVHandler) owns(key uint64) bool {
	return h.cfg.Ring == nil || h.cfg.Ring.Route(key) == h.shard
}

// fillVal derives the value bytes for (key, seed) — a pure function, so
// preloaded contents are identical however many shards split the keyspace.
func (h *KVHandler) fillVal(key, seed uint64) {
	for i := 0; i < len(h.buf); i += 8 {
		w := mix64(key ^ mix64(seed+uint64(i)))
		for j := 0; j < 8; j++ {
			h.buf[i+j] = byte(w >> (8 * uint(j)))
		}
	}
}

// Setup implements engine.ShardHandler: format the arena, build the
// table, preload the shard's slice of the keyspace.
func (h *KVHandler) Setup(env *engine.Env, region mem.Region, shard int, seed uint64) {
	h.shard = shard
	arena := pmem.NewArena(env, region)
	env.TxBegin()
	arena.Init()
	h.table = structures.NewHashMap(env, arena, h.cfg.Buckets, h.cfg.ValBytes)
	env.TxEnd()
	for k := uint64(0); k < h.cfg.Preload; k++ {
		if !h.owns(k) {
			continue
		}
		env.TxBegin()
		h.fillVal(k, seed)
		h.table.Put(k, h.buf)
		env.TxEnd()
	}
}

// Handle implements engine.ShardHandler.
func (h *KVHandler) Handle(env *engine.Env, req engine.ShardRequest) {
	env.TxBegin()
	switch req.Kind {
	case OpGet:
		h.Gets++
		if !h.table.Get(req.Key, h.buf) {
			h.GetMisses++
		}
	case OpPut:
		h.Puts++
		h.fillVal(req.Key, req.Aux)
		h.table.Put(req.Key, h.buf)
	case OpUpdate:
		h.Updates++
		word := int(req.Aux % uint64(h.cfg.ValBytes/mem.WordSize))
		if !h.table.UpdateWord(req.Key, word, mix64(req.Aux)) {
			h.fillVal(req.Key, req.Aux)
			h.table.Put(req.Key, h.buf)
		}
	case OpDelete:
		h.Deletes++
		h.table.Delete(req.Key)
	default:
		panic(fmt.Sprintf("service: unknown KV opcode %d", req.Kind))
	}
	env.TxEnd()
}
