// Package mq is the repository's Kafka substitute: a topic-based message
// broker with append-only logs addressed by offset, served over a
// length-framed JSON TCP protocol.
//
// The paper's MQProduce and MQConsume workload functions send to and
// receive from a Kafka topic (Table I). The broker keeps Kafka's essential
// semantics for those workloads: messages in a topic are totally ordered
// and durable for the broker's lifetime, and consumers address messages by
// offset.
//
// It serves the three operations those functions and their fixture
// perform: produce, fetch (which answers at once with what the log holds),
// and end. PR 24 cut the rest — consumer groups (consume, commit,
// committed), the topics listing, and the long-poll wait on fetch, with the
// condition variables and the broker-closes-first shutdown it needed —
// each op now answers "unknown op"; any of them is one `git revert` hunk
// away.
package mq

import (
	"fmt"
	"sync"
)

// Message is one record in a topic log.
type Message struct {
	Topic  string `json:"topic"`
	Offset int64  `json:"offset"`
	Key    []byte `json:"key,omitempty"`
	Value  []byte `json:"value"`
}

// Broker is a thread-safe in-memory message broker. Topics are created on
// first produce.
type Broker struct {
	mu     sync.Mutex
	topics map[string][]Message
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[string][]Message)}
}

// Produce appends a message to a topic and returns its offset.
func (b *Broker) Produce(topic string, key, value []byte) (int64, error) {
	if topic == "" {
		return 0, fmt.Errorf("mq: empty topic")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	off := int64(len(b.topics[topic]))
	b.topics[topic] = append(b.topics[topic], Message{
		Topic:  topic,
		Offset: off,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
	})
	return off, nil
}

// Fetch returns up to max messages from topic starting at offset; an empty
// slice means the log has nothing at or past offset.
func (b *Broker) Fetch(topic string, offset int64, max int) ([]Message, error) {
	if topic == "" {
		return nil, fmt.Errorf("mq: empty topic")
	}
	if offset < 0 {
		return nil, fmt.Errorf("mq: negative offset %d", offset)
	}
	if max <= 0 {
		max = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	log := b.topics[topic]
	if int64(len(log)) <= offset {
		return nil, nil
	}
	// Clamp by remaining count, not by computing offset+max: with a huge
	// max the sum overflows int64 and the slice size goes negative.
	n := int64(len(log)) - offset
	if n > int64(max) {
		n = int64(max)
	}
	out := make([]Message, n)
	copy(out, log[offset:offset+n])
	return out, nil
}

// End returns the next offset that a produce to the topic would receive
// (i.e. the log length).
func (b *Broker) End(topic string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.topics[topic]))
}
