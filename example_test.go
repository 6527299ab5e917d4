package xpushstream_test

import (
	"fmt"
	"log"
	"strings"

	xpushstream "repro"
)

// The basic workflow: compile a workload once, filter many documents.
func Example() {
	engine, err := xpushstream.Compile([]string{
		`//order[total > 1000]`,
		`//order[customer/country = "US"]`,
	}, xpushstream.Config{})
	if err != nil {
		log.Fatal(err)
	}
	matches, err := engine.FilterDocument([]byte(
		`<order><customer><country>US</country></customer><total>1500</total></order>`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(matches)
	// Output: [0 1]
}

// Filtering a stream of concatenated documents with a per-document
// callback.
func ExampleEngine_FilterBytes() {
	engine, err := xpushstream.Compile([]string{`/tick[price > 100]`}, xpushstream.Config{})
	if err != nil {
		log.Fatal(err)
	}
	stream := `<tick><price>50</price></tick><tick><price>150</price></tick>`
	err = engine.FilterBytes([]byte(stream), func(matches []int) {
		fmt.Println(len(matches))
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// 0
	// 1
}

// Inserting subscriptions without discarding the engine's warm state (the
// paper's layered-machine update path): the derived engine shares the
// receiver's machine and adds one small layer.
func ExampleEngine_WithQueries() {
	engine, err := xpushstream.Compile([]string{`/m[v=1]`}, xpushstream.Config{})
	if err != nil {
		log.Fatal(err)
	}
	next, err := engine.WithQueries([]string{`/m[v=2]`})
	if err != nil {
		log.Fatal(err)
	}
	matches, _ := next.FilterDocument([]byte(`<m><v>2</v></m>`))
	fmt.Println(matches, next.NumLayers(), engine.NumLayers())
	// Output: [1] 2 1
}

// Using a DTD to enable the order optimization and synthetic training.
func ExampleConfig() {
	d, err := xpushstream.ParseDTD(`
<!ELEMENT person (name, age, phone)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT age (#PCDATA)>
<!ELEMENT phone (#PCDATA)>`)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := xpushstream.Compile(
		[]string{`/person[name="Smith" and age=33 and phone=5551234]`},
		xpushstream.Config{TopDownPruning: true, OrderOptimization: true, Training: true, DTD: d})
	if err != nil {
		log.Fatal(err)
	}
	matches, _ := engine.FilterDocument([]byte(
		`<person><name>Smith</name><age>33</age><phone>5551234</phone></person>`))
	fmt.Println(matches)
	// Output: [0]
}

// Processing an unbounded stream with bounded memory.
func ExampleEngine_FilterStreaming() {
	engine, err := xpushstream.Compile([]string{`//alert`}, xpushstream.Config{MaxStates: 10000})
	if err != nil {
		log.Fatal(err)
	}
	stream := strings.NewReader(`<alert/><info/><alert><level>2</level></alert>`)
	total := 0
	if err := engine.FilterStreaming(stream, func(m []int) { total += len(m) }); err != nil {
		log.Fatal(err)
	}
	fmt.Println(total)
	// Output: 2
}

// Rejecting filters outside the supported fragment up front.
func ExampleValidateQuery() {
	fmt.Println(xpushstream.ValidateQuery(`//a[b=1 and not(c)]`))
	err := xpushstream.ValidateQuery(`//a[`)
	fmt.Println(err != nil)
	// Output:
	// <nil>
	// true
}
