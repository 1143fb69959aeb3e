// Free State case study (§4 of the paper): the full DEWS over all five
// district municipalities — simulated climate, heterogeneous WSN, lossy
// uplink, semantic mediation, CEP + indigenous-knowledge fusion, forecast
// verification, and multi-channel dissemination.
//
// Run: go run ./examples/freestate
package main

import (
	"fmt"
	"log"

	"repro/internal/dews"
	"repro/internal/forecast"
)

func main() {
	system, err := dews.NewSystem(dews.Config{
		Seed:             2015,
		Years:            8,
		TrainYears:       4,
		LeadDays:         30,
		NodesPerDistrict: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Free State DEWS — five districts, 8 simulated years (4 training)")
	result, err := system.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npipeline: %d readings fetched, %d annotated, %d CEP inferences\n",
		result.Fetched, result.Annotated, result.Inferences)

	fmt.Println("\nforecast verification (paper's central claim: fusion wins):")
	fmt.Print(dews.FormatSkillTable(result))

	fused, _ := result.SkillByName("fused")
	sensor, _ := result.SkillByName("sensor-only")
	ikOnly, _ := result.SkillByName("ik-only")
	fmt.Printf("\nCSI: fused %.3f vs sensor-only %.3f vs ik-only %.3f\n",
		fused.Contingency.CSI(), sensor.Contingency.CSI(), ikOnly.Contingency.CSI())

	fmt.Println("\nmost severe bulletins issued:")
	shown := 0
	for _, b := range result.Bulletins {
		if b.Band >= forecast.DVISevere {
			fmt.Println("  " + b.Headline())
			shown++
			if shown == 5 {
				break
			}
		}
	}
	if shown == 0 {
		fmt.Println("  (no severe bulletins this run)")
	}

	fmt.Println("\ncurrent smart billboard:")
	fmt.Print(system.Billboard().Display())

	fmt.Println("dissemination accounting:")
	st := result.Hub
	for _, ch := range []string{"billboard", "sms", "ip-radio"} {
		fmt.Printf("  %-13s delivered=%-5d filtered=%d\n", ch, st.Delivered[ch], st.Filtered[ch])
	}
	fmt.Printf("  %-13s materialized=%d\n", "semantic-web", system.Materialized())
}
