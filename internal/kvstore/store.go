// Package kvstore is the repository's Redis substitute: an in-memory
// key-value store served over a RESP (REdis Serialization Protocol) TCP
// endpoint, with a matching client.
//
// The paper hosts a Redis server on a dedicated SBC for the RedisInsert and
// RedisUpdate workload functions (Table I). Building the store from scratch
// keeps the network-bound workloads exercising a real request/response
// protocol path — connection handling, serialization, server-side work —
// without an external dependency.
//
// It serves the two commands those functions send and nothing else: SET
// key value and SETNX. Every other command — GET, PING, TTLs (SET ... EX,
// EXPIRE, TTL), APPEND, MGET/MSET, DEL, EXISTS, INCR/DECR[BY], KEYS,
// DBSIZE, FLUSHALL, QUIT — answers "-ERR unknown command".
package kvstore

import "sync"

// Store is a thread-safe in-memory key-value map.
// The zero value is not usable; create one with NewStore.
type Store struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{data: make(map[string][]byte)} }

// Set stores a copy of value under key, returning true if the key already
// existed.
func (s *Store) Set(key string, value []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, existed := s.data[key]
	s.data[key] = append([]byte(nil), value...)
	return existed
}

// SetNX stores value only if key does not exist; reports whether it stored.
func (s *Store) SetNX(key string, value []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, existed := s.data[key]; existed {
		return false
	}
	s.data[key] = append([]byte(nil), value...)
	return true
}
