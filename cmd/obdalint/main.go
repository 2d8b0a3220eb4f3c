// Command obdalint runs the static analyzer over an OBDA specification —
// by default the NPD benchmark artifacts (ontology, R2RML mapping, schema)
// — and prints the lint report. It is the CI gate for the benchmark
// artifacts: the exit status is non-zero when the analysis finds errors
// (or, with -strict, warnings).
//
//	obdalint            # text report over the NPD artifacts
//	obdalint -json      # machine-readable report
//	obdalint -strict    # warnings also fail
//	obdalint -quiet     # summary line only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"npdbench/internal/analyze"
	"npdbench/internal/npd"
)

func main() {
	var (
		asJSON = flag.Bool("json", false, "emit the report as JSON")
		strict = flag.Bool("strict", false, "exit non-zero on warnings too")
		quiet  = flag.Bool("quiet", false, "print only the summary line")
	)
	flag.Parse()

	db, err := npd.NewDatabase()
	if err != nil {
		fmt.Fprintln(os.Stderr, "obdalint:", err)
		os.Exit(2)
	}
	res := analyze.Run(analyze.Input{
		Mapping:  npd.NewMapping(),
		Ontology: npd.NewOntology(),
		DB:       db,
	})

	switch {
	case *asJSON:
		payload := struct {
			analyze.ReportJSON
			Constraints analyze.ConstraintStats `json:"constraints"`
		}{res.Report.Payload(), res.Constraints.Stats()}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "obdalint:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	case *quiet:
		fmt.Println(res.Report.Summary())
	default:
		fmt.Print(res.Report.String())
		cs := res.Constraints.Stats()
		fmt.Printf("constraints: %d tables, %d keys, %d not-null columns\n",
			cs.Tables, cs.Keys, cs.NotNullColumns)
	}

	if res.Report.HasErrors() || (*strict && res.Report.Count(analyze.SevWarning) > 0) {
		os.Exit(1)
	}
}
