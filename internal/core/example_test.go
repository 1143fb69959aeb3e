package core_test

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

// ExampleBroker_SubscribeAck shows the at-least-once tier on a durable
// broker: a late subscriber's queue starts with the latest retained
// message of each matching topic, in topic order and with its log
// offset, and each delivery stays in flight until it is acknowledged.
func ExampleBroker_SubscribeAck() {
	dir, err := os.MkdirTemp("", "core-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		panic(err)
	}
	defer l.Close()
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		panic(err)
	}
	at := time.Date(2015, 11, 20, 0, 0, 0, 0, time.UTC)
	for i, district := range []string{"xhariep", "mangaung", "xhariep"} {
		m := core.Message{Topic: "bulletin/" + district, Time: at, Payload: map[string]any{"issue": i}}
		if _, err := b.Publish(m); err != nil {
			panic(err)
		}
	}

	sub, err := b.SubscribeAck("bulletin/#", 0)
	if err != nil {
		panic(err)
	}
	for _, d := range sub.Fetch(0) {
		fmt.Printf("seq %d: offset %d %s\n", d.Seq, d.Message.Offset, d.Message.Topic)
	}
	queued, inflight := sub.Pending()
	fmt.Printf("queued=%d inflight=%d\n", queued, inflight)
	if err := sub.Ack(1); err != nil {
		panic(err)
	}
	queued, inflight = sub.Pending()
	fmt.Printf("acked=%d queued=%d inflight=%d\n", sub.Acked(), queued, inflight)
	// Output:
	// seq 1: offset 2 bulletin/mangaung
	// seq 2: offset 3 bulletin/xhariep
	// queued=0 inflight=2
	// acked=1 queued=0 inflight=1
}
