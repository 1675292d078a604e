// Command dlsched solves one STEADY-STATE-DIVISIBLE-LOAD instance:
// it reads a platform JSON (produced by cmd/platgen or hand-written),
// runs the chosen heuristic under the chosen objective, prints the
// allocation and — optionally — reconstructs the periodic schedule
// and executes it on the flow-level network simulator.
//
// Usage:
//
//	dlsched -platform platform.json -heuristic lprg -objective maxmin
//	dlsched -platform platform.json -heuristic g -schedule -simulate
//	dlsched -platform platform.json -heuristic lprg -json
//
// Every run computes one service.SolveReport (allocation, objective
// value, LP bound), the wire type the schedd scheduling service answers
// with, and prints it: as text, or with -json as the service's bytes, so
// CLI and service results are directly diffable. For the model-backed
// heuristics (lprg, lprr, lprr-eq, bnb) the report is computed through
// the service's batch path — the bytes of a fresh schedd session's
// answer on the same platform; for the model-free heuristics (g, g-full,
// lpr) it is computed here, with the same members. -schedule and
// -simulate run on the report's allocation; -json skips them.
//
// -batch reads a service.BatchWhatIfRequest JSON file and answers
// every query against a fresh warm session through the service's
// batched what-if engine. The output is a service.BatchWhatIfResponse,
// byte-identical to POST /sessions/{id}/whatif/batch on a schedd
// session over the same platform and configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dlsched:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		platFile = flag.String("platform", "", "platform JSON file (required)")
		heur     = flag.String("heuristic", "lprg", "one of g, g-full, lpr, lprg, lprr, lprr-eq, bnb")
		objName  = flag.String("objective", "maxmin", "sum or maxmin")
		payoffs  = flag.String("payoffs", "", "comma-separated payoff factors (default: all 1)")
		seed     = flag.Int64("seed", 1, "seed for the randomized heuristics")
		doSched  = flag.Bool("schedule", false, "reconstruct the periodic schedule")
		denom    = flag.Int64("denom", 1000000, "schedule common denominator (period length)")
		doSim    = flag.Bool("simulate", false, "execute the schedule on the network simulator (implies -schedule)")
		periods  = flag.Int("periods", 100, "simulation horizon in periods")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable service.SolveReport instead of text (skips -schedule/-simulate)")
		batchIn  = flag.String("batch", "", "batched what-if request JSON file (service.BatchWhatIfRequest); answers every query against a fresh warm session and emits a service.BatchWhatIfResponse")
	)
	flag.Parse()
	if *platFile == "" {
		return fmt.Errorf("-platform is required")
	}
	// Checked before the solve, which at large K takes seconds and prints
	// the allocation before the schedule or the simulation would refuse.
	if *doSim && *periods < 2 {
		return fmt.Errorf("-periods %d: the simulation needs at least 2", *periods)
	}
	if (*doSched || *doSim) && *denom < 1 {
		return fmt.Errorf("-denom %d: the schedule needs a positive period length", *denom)
	}
	data, err := os.ReadFile(*platFile)
	if err != nil {
		return err
	}
	pl, err := platform.Decode(data)
	if err != nil {
		return err
	}
	pr := core.NewProblem(pl)
	if *payoffs != "" {
		parts := strings.Split(*payoffs, ",")
		if len(parts) != pr.K() {
			return fmt.Errorf("%d payoffs for %d clusters", len(parts), pr.K())
		}
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("payoff %d: %w", i, err)
			}
			pr.Payoffs[i] = v
		}
	}
	obj, err := core.ParseObjective(strings.ToLower(*objName))
	if err != nil {
		return err
	}

	if *batchIn != "" {
		return emitBatch(data, strings.ToLower(*heur), strings.ToLower(*objName), pr, *seed, *batchIn)
	}
	rep, err := report(data, strings.ToLower(*heur), strings.ToLower(*objName), obj, pr, *seed)
	if err != nil {
		return err
	}
	if *jsonOut {
		return service.EncodeReport(os.Stdout, rep)
	}
	alloc := &core.Allocation{Alpha: rep.Alpha, Beta: rep.Beta}
	fmt.Printf("platform: K=%d routers=%d links=%d\n", pr.K(), pl.Routers, len(pl.Links))
	fmt.Printf("heuristic=%s objective=%s value=%.4f lp-bound=%.4f ratio=%.4f\n",
		strings.ToUpper(*heur), obj, rep.Value, rep.LPBound, safeRatio(rep.Value, rep.LPBound))
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  app %-3d throughput=%.4f (payoff %.2f)\n", k, rep.Throughputs[k], pr.Payoffs[k])
	}
	printNonzero(alloc)

	if !*doSched && !*doSim {
		return nil
	}
	s, err := schedule.Build(pr, alloc, *denom)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: period=%.0f time units\n", s.Period)
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  app %-3d load/period=%d steady throughput=%.4f\n", k, s.AppLoadPerPeriod(k), s.Throughput(k))
	}
	if !*doSim {
		return nil
	}
	sim, err := netsim.ExecuteSchedule(pr, s, *periods)
	if err != nil {
		return err
	}
	fmt.Printf("simulation: periods=%d transfer-makespan=%.1f cycle=%.1f fits=%v\n",
		sim.Periods, sim.TransferMakespan, sim.CycleTime, sim.FitsPeriod)
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  app %-3d achieved=%.4f predicted=%.4f\n", k, sim.Achieved[k], sim.Predicted[k])
	}
	return nil
}

// modelFree are the heuristics dlsched runs itself; a session runs the
// others (service.SessionHeuristic).
var modelFree = []heuristics.Name{heuristics.NameG, heuristics.NameGFull, heuristics.NameLPR}

// report computes the run's one report. Model-backed heuristics go
// through service.Batch — the scheduling service's own batch entry
// point — so it is identical to a fresh schedd session's answer on the
// same platform; the model-free ones (names in lower case) run here,
// through heuristics.Run, and LPR rounds the optimum of that same
// create solve (heuristics.Relax), so lpr never reports above lprg.
func report(platformJSON []byte, heur, objName string, obj core.Objective, pr *core.Problem, seed int64) (*service.SolveReport, error) {
	if _, ok := service.SessionHeuristic(heur); ok {
		return service.Batch(&service.CreateSessionRequest{
			Platform:  platformJSON,
			Objective: objName,
			Heuristic: heur,
			Payoffs:   pr.Payoffs,
			Seed:      seed,
		})
	}
	name := heuristics.Name(strings.ToUpper(heur))
	if !slices.Contains(modelFree, name) {
		return nil, fmt.Errorf("unknown heuristic %q", heur)
	}
	rel, err := heuristics.Relax(pr, obj)
	if err != nil {
		return nil, err
	}
	res, err := heuristics.Run(name, pr, rel, nil, 0)
	if err != nil {
		return nil, err
	}
	return service.HeuristicReport(heur, objName, pr, res, rel.Objective, 0)
}

// emitBatch answers a batched what-if request — decoded as the
// endpoint decodes its body, service.DecodeBatch — through the service's
// engine (fresh warm session, forked solve contexts) and prints the
// response through the HTTP endpoint's own encoder,
// service.EncodeBatch, so the CLI output byte-diffs clean against
// POST /sessions/{id}/whatif/batch.
func emitBatch(platformJSON []byte, heur, objName string, pr *core.Problem, seed int64, batchFile string) error {
	f, err := os.Open(batchFile)
	if err != nil {
		return err
	}
	defer f.Close()
	batchReq, err := service.DecodeBatch(f)
	if err != nil {
		return fmt.Errorf("decoding batch request: %w", err)
	}
	createReq := &service.CreateSessionRequest{
		Platform:  platformJSON,
		Objective: objName,
		Heuristic: heur,
		Payoffs:   pr.Payoffs,
		Seed:      seed,
	}
	resp, err := service.BatchWhatIf(createReq, batchReq)
	if err != nil {
		return err
	}
	return service.EncodeBatch(os.Stdout, resp)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printNonzero(a *core.Allocation) {
	K := len(a.Alpha)
	n := 0
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if a.Alpha[k][l] > 1e-9 {
				n++
			}
		}
	}
	fmt.Printf("allocation: %d nonzero α entries\n", n)
	if K > 12 {
		return // keep output compact on big platforms
	}
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if a.Alpha[k][l] <= 1e-9 {
				continue
			}
			if k == l {
				fmt.Printf("  α[%d,%d]=%.3f (local)\n", k, l, a.Alpha[k][l])
			} else {
				fmt.Printf("  α[%d,%d]=%.3f β=%d\n", k, l, a.Alpha[k][l], a.Beta[k][l])
			}
		}
	}
}
