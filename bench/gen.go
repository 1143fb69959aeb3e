package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wsn"
)

// loadTopics is the closed topic universe of the serving workloads:
// 5 districts × 6 observed properties = 30 topics under load/, so one
// load/# subscription sees every event and nothing else does.
func loadTopics() (topics, districts, properties []string) {
	for _, m := range wsn.AllModalities[:6] {
		properties = append(properties, m.String())
	}
	districts = loadgen.DefaultDistricts
	for _, d := range districts {
		for _, p := range properties {
			topics = append(topics, "load/"+d+"/"+p)
		}
	}
	return topics, districts, properties
}

// idPrefix prefixes the loadgen.HeaderID value of events that carry one;
// the event's seq follows, so the durability oracle can key on it.
const idPrefix = "s-"

// genBodies pre-renders n POST /publish bodies, each a JSON array of
// batch envelopes. Event seq numbers run 0..n*batch-1 in body order, so
// body i carries seqs [i*batch, (i+1)*batch) and the client looks
// latency up by seq without the server ever seeing a timestamp. withID
// adds the loadgen.HeaderID header the durability oracle keys on.
func genBodies(seed int64, n, batch int, withID bool) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	_, districts, properties := loadTopics()
	bodies := make([][]byte, n)
	// One arena for all bodies: a flood run pre-renders several hundred
	// thousand events and per-body allocations would dominate set-up.
	arena := make([]byte, 0, n*batch*176)
	seq := 0
	for i := range bodies {
		start := len(arena)
		arena = append(arena, '[')
		for j := 0; j < batch; j++ {
			if j > 0 {
				arena = append(arena, ',')
			}
			d := districts[rng.Intn(len(districts))]
			p := properties[rng.Intn(len(properties))]
			arena = append(arena, `{"topic":"load/`...)
			arena = append(arena, d...)
			arena = append(arena, '/')
			arena = append(arena, p...)
			arena = append(arena, `","payload":{"node":"bench-`...)
			arena = append(arena, d...)
			arena = append(arena, '-')
			arena = strconv.AppendInt(arena, int64(10+rng.Intn(8)), 10)
			arena = append(arena, `","seq":`...)
			arena = strconv.AppendInt(arena, int64(seq), 10)
			arena = append(arena, `,"property":"`...)
			arena = append(arena, p...)
			arena = append(arena, `","value":`...)
			arena = strconv.AppendFloat(arena, float64(rng.Intn(400000))/10000, 'f', 4, 64)
			arena = append(arena, '}')
			if withID {
				arena = append(arena, `,"headers":{"`+loadgen.HeaderID+`":"`+idPrefix...)
				arena = strconv.AppendInt(arena, int64(seq), 10)
				arena = append(arena, `"}`...)
			}
			arena = append(arena, '}')
			seq++
		}
		arena = append(arena, ']')
		bodies[i] = arena[start:len(arena):len(arena)]
	}
	return bodies
}

// genSchedule is an open-loop send schedule: request i is due at a
// seeded uniform instant inside the i-th interval. Sending on the exact
// grid would lock each request's phase against the gateway's 15 ms pump
// tick for the whole run, and the median delivery latency would then
// depend on where the run happened to start.
func genSchedule(seed int64, n int, interval time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	schedule := make([]time.Duration, n)
	for i := range schedule {
		schedule[i] = time.Duration(i)*interval + time.Duration(rng.Int63n(int64(interval)))
	}
	return schedule
}

// sparqlMix is the fixed round-robin query mix of restart.readers: the
// three loadgen queries plus an aggregate and an unlimited ordered
// filter, so query evaluation outweighs the HTTP round trip. Result sizes
// follow from the number of bulletins, not from their seeded values, so
// a round costs the same on every seed.
var sparqlMix = []string{
	sparqlPrefix + `SELECT ?b ?p WHERE { ?b dews:probability ?p . FILTER(?p > 0.5) } LIMIT 50`,
	sparqlPrefix + `ASK { ?b a dews:Bulletin . }`,
	sparqlPrefix + `SELECT ?b ?r WHERE { ?b dews:affectsRegion ?r . ?b dews:dviBand ?band . } LIMIT 25`,
	sparqlPrefix + `SELECT ?region (AVG(?p) AS ?mean) (COUNT(?b) AS ?n) WHERE { ?b dews:affectsRegion ?region . ?b dews:probability ?p . } GROUP BY ?region`,
	sparqlPrefix + `SELECT ?b ?l ?d WHERE { ?b dews:leadDays ?l . ?b dews:issued ?d . FILTER(?l >= 30) } ORDER BY ?d`,
}

const sparqlPrefix = "PREFIX dews: <http://dews.africrid.example/ontology/drought#>\n"

// inputHash is the SHA-256 of an input set, for the determinism test
// and the result record.
func inputHash(bodies [][]byte, schedule []time.Duration, queries []string) string {
	h := sha256.New()
	for _, d := range schedule {
		fmt.Fprintln(h, int64(d))
	}
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	for _, q := range queries {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
