package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"microfaas/internal/kvstore"
	"microfaas/internal/mq"
	"microfaas/internal/objstore"
	"microfaas/internal/sqlstore"
)

// This file implements Table I's eight network-bound functions against the
// repository's backing services. Each invocation dials its service fresh —
// a MicroFaaS worker boots into a clean environment for every job, so
// there are no pooled connections to reuse (Sec III).

// Names of the shared fixture SeedStores writes.
const (
	// SQLTable is the table SQLSelect/SQLUpdate query.
	SQLTable = "records"
	// SQLRows is how many rows SeedStores inserts.
	SQLRows = 200
	// COSBucket is the object-store bucket.
	COSBucket = "cos"
	// COSObjects is how many blobs SeedStores stores.
	COSObjects = 8
	// COSObjectBytes is the size of each seeded blob (kept modest so live
	// tests stay fast; the paper-scale 8 MiB transfer time is modelled in
	// internal/model).
	COSObjectBytes = 128 << 10
	// MQTopic is the message-queue topic.
	MQTopic = "events"
	// MQSeedMessages is how many messages SeedStores produces.
	MQSeedMessages = 32
)

// SeedStores writes the shared fixture the network-bound functions expect
// straight into the stores a cluster serves them from: the SQL table and
// its rows, the object-store bucket and blobs, and a primed MQ topic. Call
// it once per cluster, on fresh stores, before driving load. It runs the
// statements, uploads and messages a client would send, in process, so a
// cluster's set-up makes no round trip to its own stores.
func SeedStores(db *sqlstore.Database, objs *objstore.Store, broker *mq.Broker) error {
	if _, err := db.Exec(fmt.Sprintf(
		"CREATE TABLE %s (id INT, name TEXT, balance FLOAT, region TEXT)", SQLTable)); err != nil {
		return fmt.Errorf("workload: seed sql: %w", err)
	}
	regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
	rng := rand.New(rand.NewSource(7))
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", SQLTable)
	for i := 0; i < SQLRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'acct-%04d', %.2f, '%s')",
			i, i, rng.Float64()*10000, regions[i%len(regions)])
	}
	if _, err := db.Exec(sb.String()); err != nil {
		return fmt.Errorf("workload: seed sql: %w", err)
	}

	blob := make([]byte, COSObjectBytes)
	for i := 0; i < COSObjects; i++ {
		fillBlob(blob, int64(1000+i))
		if err := objs.Put(COSBucket, cosKey(i), blob); err != nil {
			return fmt.Errorf("workload: seed cos: %w", err)
		}
	}

	for i := 0; i < MQSeedMessages; i++ {
		msg := fmt.Sprintf(`{"event":"seed","n":%d}`, i)
		if _, err := broker.Produce(MQTopic, nil, []byte(msg)); err != nil {
			return fmt.Errorf("workload: seed mq: %w", err)
		}
	}
	return nil
}

// fillBlob fills p with the bytes rand.New(rand.NewSource(seed)).Read(p)
// would: Read takes seven bytes, low first, from each Int63, so each draw
// is stored as one little-endian word whose eighth byte the next draw
// overwrites.
func fillBlob(p []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	for ; i+8 <= len(p); i += 7 {
		binary.LittleEndian.PutUint64(p[i:], uint64(rng.Int63()))
	}
	for v := rng.Int63(); i < len(p); i++ {
		p[i] = byte(v)
		v >>= 8
	}
}

func cosKey(i int) string { return fmt.Sprintf("blob-%03d", i) }

// --- RedisInsert / RedisUpdate ---

type kvArgs struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type kvResult struct {
	Key     string `json:"key"`
	Existed bool   `json:"existed"`
}

func runRedisInsert(env *Env, raw []byte) ([]byte, error) {
	var args kvArgs
	if err := decodeArgs("RedisInsert", raw, &args); err != nil {
		return nil, err
	}
	if env.KVStoreAddr == "" {
		return nil, errors.New("workload: RedisInsert: no kvstore configured")
	}
	c, err := kvstore.Dial(env.KVStoreAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stored, err := c.SetNX(args.Key, []byte(args.Value))
	if err != nil {
		return nil, err
	}
	if !stored {
		// Key collision: still a successful insert semantically — pick the
		// versioned key the way the paper's benchmark retries would.
		if err := c.Set(args.Key+":dup", []byte(args.Value)); err != nil {
			return nil, err
		}
	}
	return mustJSON(kvResult{Key: args.Key, Existed: !stored}), nil
}

func runRedisUpdate(env *Env, raw []byte) ([]byte, error) {
	var args kvArgs
	if err := decodeArgs("RedisUpdate", raw, &args); err != nil {
		return nil, err
	}
	if env.KVStoreAddr == "" {
		return nil, errors.New("workload: RedisUpdate: no kvstore configured")
	}
	c, err := kvstore.Dial(env.KVStoreAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// Ensure the record exists, then overwrite it — an update against a
	// possibly-fresh store.
	if _, err := c.SetNX(args.Key, []byte("initial")); err != nil {
		return nil, err
	}
	if err := c.Set(args.Key, []byte(args.Value)); err != nil {
		return nil, err
	}
	return mustJSON(kvResult{Key: args.Key, Existed: true}), nil
}

// --- SQLSelect / SQLUpdate ---

type sqlSelectArgs struct {
	Region     string  `json:"region"`
	MinBalance float64 `json:"min_balance"`
	Limit      int     `json:"limit"`
}

type sqlSelectResult struct {
	Rows int `json:"rows"`
}

func runSQLSelect(env *Env, raw []byte) ([]byte, error) {
	var args sqlSelectArgs
	if err := decodeArgs("SQLSelect", raw, &args); err != nil {
		return nil, err
	}
	if env.SQLStoreAddr == "" {
		return nil, errors.New("workload: SQLSelect: no sqlstore configured")
	}
	c, err := sqlstore.Dial(env.SQLStoreAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	limit := args.Limit
	if limit <= 0 {
		limit = 20
	}
	q := fmt.Sprintf(
		"SELECT id, name, balance FROM %s WHERE region = '%s' AND balance >= %f ORDER BY balance DESC LIMIT %d",
		SQLTable, args.Region, args.MinBalance, limit)
	res, err := c.Query(q)
	if err != nil {
		return nil, err
	}
	return mustJSON(sqlSelectResult{Rows: len(res.Rows)}), nil
}

type sqlUpdateArgs struct {
	ID      int     `json:"id"`
	Balance float64 `json:"balance"`
}

type sqlUpdateResult struct {
	Affected int `json:"affected"`
}

func runSQLUpdate(env *Env, raw []byte) ([]byte, error) {
	var args sqlUpdateArgs
	if err := decodeArgs("SQLUpdate", raw, &args); err != nil {
		return nil, err
	}
	if env.SQLStoreAddr == "" {
		return nil, errors.New("workload: SQLUpdate: no sqlstore configured")
	}
	c, err := sqlstore.Dial(env.SQLStoreAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res, err := c.Query(fmt.Sprintf(
		"UPDATE %s SET balance = %f WHERE id = %d", SQLTable, args.Balance, args.ID))
	if err != nil {
		return nil, err
	}
	return mustJSON(sqlUpdateResult{Affected: res.Affected}), nil
}

// --- COSGet / COSPut ---

type cosGetArgs struct {
	Key string `json:"key"`
}

type cosGetResult struct {
	Bytes    int    `json:"bytes"`
	Checksum string `json:"checksum"`
}

func runCOSGet(env *Env, raw []byte) ([]byte, error) {
	var args cosGetArgs
	if err := decodeArgs("COSGet", raw, &args); err != nil {
		return nil, err
	}
	if env.ObjStoreAddr == "" {
		return nil, errors.New("workload: COSGet: no objstore configured")
	}
	c := objstore.NewClient(env.ObjStoreAddr)
	data, ok, err := c.Get(COSBucket, args.Key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("workload: COSGet: object %q not found", args.Key)
	}
	return mustJSON(cosGetResult{
		Bytes:    len(data),
		Checksum: fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)),
	}), nil
}

type cosPutArgs struct {
	Key   string `json:"key"`
	Bytes int    `json:"bytes"`
	Seed  int64  `json:"seed"`
}

type cosPutResult struct {
	Key  string `json:"key"`
	ETag string `json:"etag"`
}

func runCOSPut(env *Env, raw []byte) ([]byte, error) {
	var args cosPutArgs
	if err := decodeArgs("COSPut", raw, &args); err != nil {
		return nil, err
	}
	if env.ObjStoreAddr == "" {
		return nil, errors.New("workload: COSPut: no objstore configured")
	}
	if args.Bytes <= 0 || args.Bytes > 64<<20 {
		return nil, fmt.Errorf("workload: COSPut: bytes must be in (0,64MiB], got %d", args.Bytes)
	}
	blob := make([]byte, args.Bytes)
	fillBlob(blob, args.Seed)
	c := objstore.NewClient(env.ObjStoreAddr)
	tag, err := c.Put(COSBucket, args.Key, blob)
	if err != nil {
		return nil, err
	}
	return mustJSON(cosPutResult{Key: args.Key, ETag: tag}), nil
}

// --- MQProduce / MQConsume ---

type mqProduceArgs struct {
	Message string `json:"message"`
}

type mqProduceResult struct {
	Offset int64 `json:"offset"`
}

func runMQProduce(env *Env, raw []byte) ([]byte, error) {
	var args mqProduceArgs
	if err := decodeArgs("MQProduce", raw, &args); err != nil {
		return nil, err
	}
	if env.MQAddr == "" {
		return nil, errors.New("workload: MQProduce: no mq configured")
	}
	c, err := mq.Dial(env.MQAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	off, err := c.Produce(MQTopic, nil, []byte(args.Message))
	if err != nil {
		return nil, err
	}
	return mustJSON(mqProduceResult{Offset: off}), nil
}

type mqConsumeArgs struct {
	Seed int64 `json:"seed"`
}

type mqConsumeResult struct {
	Offset int64  `json:"offset"`
	Bytes  int    `json:"bytes"`
	Body   string `json:"body"`
}

func runMQConsume(env *Env, raw []byte) ([]byte, error) {
	var args mqConsumeArgs
	if err := decodeArgs("MQConsume", raw, &args); err != nil {
		return nil, err
	}
	if env.MQAddr == "" {
		return nil, errors.New("workload: MQConsume: no mq configured")
	}
	c, err := mq.Dial(env.MQAddr, env.dialTimeout())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	end, err := c.End(MQTopic)
	if err != nil {
		return nil, err
	}
	if end == 0 {
		return nil, fmt.Errorf("workload: MQConsume: topic %q is empty", MQTopic)
	}
	// Read one message at a seed-chosen offset: non-destructive, so the
	// suite can run MQConsume any number of times.
	off := args.Seed % end
	if off < 0 {
		off += end
	}
	msgs, err := c.Fetch(MQTopic, off, 1)
	if err != nil {
		return nil, err
	}
	if len(msgs) == 0 {
		return nil, fmt.Errorf("workload: MQConsume: no message at offset %d", off)
	}
	return mustJSON(mqConsumeResult{
		Offset: msgs[0].Offset,
		Bytes:  len(msgs[0].Value),
		Body:   string(msgs[0].Value),
	}), nil
}

func init() {
	register(Function{
		Name: "RedisInsert",
		Run:  runRedisInsert,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(kvArgs{
				Key:   fmt.Sprintf("rec:%012d", rng.Int63n(1e12)),
				Value: genText(rng, 24),
			})
		},
	})
	register(Function{
		Name: "RedisUpdate",
		Run:  runRedisUpdate,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(kvArgs{
				Key:   fmt.Sprintf("rec:%04d", rng.Intn(500)), // hot keyspace: updates hit existing records
				Value: genText(rng, 24),
			})
		},
	})
	register(Function{
		Name: "SQLSelect",
		Run:  runSQLSelect,
		GenArgs: func(rng *rand.Rand) []byte {
			regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
			return mustJSON(sqlSelectArgs{
				Region:     regions[rng.Intn(len(regions))],
				MinBalance: rng.Float64() * 5000,
				Limit:      10 + rng.Intn(20),
			})
		},
	})
	register(Function{
		Name: "SQLUpdate",
		Run:  runSQLUpdate,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(sqlUpdateArgs{
				ID:      rng.Intn(SQLRows),
				Balance: rng.Float64() * 10000,
			})
		},
	})
	register(Function{
		Name: "COSGet",
		Run:  runCOSGet,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(cosGetArgs{Key: cosKey(rng.Intn(COSObjects))})
		},
	})
	register(Function{
		Name: "COSPut",
		Run:  runCOSPut,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(cosPutArgs{
				Key:   fmt.Sprintf("upload-%08x", rng.Int31()),
				Bytes: 64<<10 + rng.Intn(64<<10),
				Seed:  rng.Int63(),
			})
		},
	})
	register(Function{
		Name: "MQProduce",
		Run:  runMQProduce,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(mqProduceArgs{
				Message: fmt.Sprintf(`{"event":"invoke","id":%d,"note":"%s"}`, rng.Int63(), genText(rng, 12)),
			})
		},
	})
	register(Function{
		Name: "MQConsume",
		Run:  runMQConsume,
		GenArgs: func(rng *rand.Rand) []byte {
			return mustJSON(mqConsumeArgs{Seed: rng.Int63()})
		},
	})
}
