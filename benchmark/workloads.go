package main

// This file is the workload file the README refers to: every size, rate and
// round length the four workloads run with, and why. Nothing here is
// adapted at run time — a rate that followed the measured throughput would
// hide exactly the regressions the paced phase exists to show.

// poolDocs is the document pool size. One round replays a seeded
// permutation of the whole pool a fixed number of times, so every round of
// a phase is the same work and round values differ only by noise.
const poolDocs = 512

// baseRounds is the round count of the saturate and paced phases at the
// contract's run length (BENCHMARK.json run_seconds); -seconds scales the
// count, never below baseRounds, and never the work per round.
const (
	baseRounds  = 30
	baseSeconds = 20
)

// subscribeOps is how many add-one-filter operations the subscribe phase
// times (cut into baseRounds rounds of 17).
const subscribeOps = 17 * baseRounds

type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	// Broker is false for the in-process engine workload.
	Broker bool
	// Filters is the distinct-filter pool size.
	Filters int
	// Subscribers is how many subscriptions the one subscriber connection
	// holds at the start of the timed phases (0 on engine-filter).
	Subscribers int
	// InitialDistinct, when non-zero, confines the initial subscriptions
	// to the first InitialDistinct filters of the pool (each claimed at
	// least once); churn then draws from the whole pool.
	InitialDistinct int
	// DocBytes is the document size floor. The protein generator's natural
	// documents average ~3.8 KB, so a floor below that changes nothing and
	// a floor above it pads with a comment the scanner must still skip.
	DocBytes int
	// Preload boots the broker with the pool as InitialQueries: one
	// consolidated machine, subscriptions are dedup hits.
	Preload bool
	// Durable adds a WAL (fsync interval) and makes every subscription
	// durable under one name, acked every ackEvery documents.
	Durable bool
	// ChurnEvery, when non-zero, switches the publisher to the synchronous
	// deterministic script: one unsubscribe+subscribe after every
	// ChurnEvery-th document.
	ChurnEvery int

	// SaturateDocs and PacedDocs are the documents per round — fixed work,
	// the same prefix of the replayed pool permutation every round, sized
	// so a round takes ~0.3 s on the seed host.
	SaturateDocs int
	PacedDocs    int
	// PacedRate is the open-loop arrival rate in documents per second,
	// ≈ 40% of the seed's saturate docs_per_s.
	PacedRate float64
}

// window is the pipelined publisher's in-flight bound on broker workloads.
const window = 64

// ackEvery is the durable subscriber's cursor-ack cadence in documents.
const ackEvery = 64

var workloads = []workload{
	{
		Name: "engine-filter",
		Why:  "the paper's experiment: 5000 filters, FilterBytes in one goroutine; scanner+machine are the whole cost, a broker change shows nothing",
		// The issue starts from 10k filters; canonically distinct ones
		// compile in ~1.7 s and five set-up repetitions of that do not fit
		// the contract's per-run budget, so the pool is halved. The machine
		// cost per document barely changes (it does not depend on the
		// filter count once warm — the paper's point).
		Filters:      5000,
		DocBytes:     4096,
		SaturateDocs: 8 * poolDocs,
		PacedDocs:    4 * poolDocs,
		PacedRate:    7000,
	},
	{
		Name:         "broker-fanout",
		Why:          "64 preloaded filters, 2000 zipfian subscriptions over TCP loopback; registry fan-out, frames, queues and sessions dominate, the engine is cheap",
		Broker:       true,
		Filters:      64,
		Subscribers:  2000,
		DocBytes:     1024,
		Preload:      true,
		SaturateDocs: 8 * poolDocs,
		PacedDocs:    3 * poolDocs,
		PacedRate:    4000,
	},
	{
		Name:         "broker-durable",
		Why:          "broker-fanout plus WAL append on publish and a durable replay pump re-filtering on delivery; the workload filter-once must move",
		Broker:       true,
		Filters:      64,
		Subscribers:  2000,
		DocBytes:     1024,
		Preload:      true,
		Durable:      true,
		SaturateDocs: 4 * poolDocs,
		PacedDocs:    2 * poolDocs,
		PacedRate:    2500,
	},
	{
		Name:            "broker-churn",
		Why:             "subscriptions arrive and churn over the wire on a synchronous script; COW layering and consolidation are written, not just read",
		Broker:          true,
		Filters:         2000,
		Subscribers:     500,
		InitialDistinct: 200,
		DocBytes:        1024,
		ChurnEvery:      10,
		SaturateDocs:    poolDocs,
		PacedDocs:       192,
		PacedRate:       600,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
