package repro

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/service"
)

// buildTool compiles one of the cmd/ binaries into a shared temp dir,
// once per test binary invocation.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := sharedBinDir(t)
	bin := filepath.Join(dir, name)
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

var binDir string

func sharedBinDir(t *testing.T) string {
	t.Helper()
	if binDir == "" {
		dir, err := os.MkdirTemp("", "repro-cli")
		if err != nil {
			t.Fatal(err)
		}
		binDir = dir
	}
	return binDir
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIPlatgenEmitsValidJSON(t *testing.T) {
	bin := buildTool(t, "platgen")
	out, err := run(t, bin, "-k", "6", "-seed", "3")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{`"routers"`, `"clusters"`, `"speed": 100`} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// -o writes the same content to a file.
	f := filepath.Join(t.TempDir(), "p.json")
	if _, err := run(t, bin, "-k", "6", "-seed", "3", "-o", f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Fatal("file output differs from stdout output")
	}
}

func TestCLIPlatgenRejectsBadParams(t *testing.T) {
	bin := buildTool(t, "platgen")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "0"}, "K = 0"},
		{[]string{"-maxcon", "NaN"}, "mean maxcon = NaN, want a finite number"},
		{[]string{"-maxcon", "Inf"}, "mean maxcon = +Inf, want a finite number"},
		{[]string{"-connectivity", "NaN"}, "connectivity = NaN, want a finite number"},
		{[]string{"-maxcon", "3e9"}, "exceeds the link budget ceiling"},
	} {
		out, err := run(t, bin, tc.args...)
		if err == nil || !strings.Contains(out, tc.want) {
			t.Fatalf("platgen %v: err = %v, want failure mentioning %q, got:\n%s", tc.args, err, tc.want, out)
		}
	}
}

func TestCLIDlschedEndToEnd(t *testing.T) {
	platgen := buildTool(t, "platgen")
	dlsched := buildTool(t, "dlsched")
	plat := filepath.Join(t.TempDir(), "plat.json")
	if out, err := run(t, platgen, "-k", "5", "-seed", "7", "-o", plat); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, h := range []string{"g", "g-full", "lpr", "lprg", "lprr", "lprr-eq", "bnb"} {
		out, err := run(t, dlsched, "-platform", plat, "-heuristic", h, "-objective", "sum")
		if err != nil {
			t.Fatalf("%s: %v\n%s", h, err, out)
		}
		if !strings.Contains(out, "lp-bound=") || !strings.Contains(out, "value=") {
			t.Fatalf("%s output malformed:\n%s", h, out)
		}
	}
	// Schedule + simulation path.
	out, err := run(t, dlsched, "-platform", plat, "-heuristic", "lprg", "-objective", "maxmin", "-simulate", "-periods", "20")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"schedule: period=", "simulation: periods=20", "fits=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("simulate output missing %q:\n%s", want, out)
		}
	}
	// Custom payoffs.
	out, err = run(t, dlsched, "-platform", plat, "-heuristic", "g", "-payoffs", "1,0,0,2,1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "payoff 2.00") {
		t.Fatalf("payoffs not applied:\n%s", out)
	}
}

func TestCLIDlschedJSON(t *testing.T) {
	platgen := buildTool(t, "platgen")
	dlsched := buildTool(t, "dlsched")
	plat := filepath.Join(t.TempDir(), "plat.json")
	if out, err := run(t, platgen, "-k", "5", "-seed", "7", "-o", plat); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Model-backed heuristic: the report straight off the service's
	// batch path.
	out, err := run(t, dlsched, "-platform", plat, "-heuristic", "lprg", "-objective", "maxmin", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rep service.SolveReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not a SolveReport: %v\n%s", err, out)
	}
	if !rep.Feasible || rep.Value <= 0 || rep.LPBound < rep.Value-1e-9 {
		t.Fatalf("report = %+v", rep)
	}
	wantIndented(t, out, &rep)
	if len(rep.Alpha) != 5 || len(rep.Beta) != 5 || len(rep.Throughputs) != 5 {
		t.Fatalf("allocation shape wrong: %+v", rep)
	}
	// The run is deterministic: a second invocation is byte-identical
	// (the diffability contract with the scheduling service).
	out2, err := run(t, dlsched, "-platform", plat, "-heuristic", "lprg", "-objective", "maxmin", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	if out != out2 {
		t.Fatal("-json output is not deterministic across runs")
	}
	// Model-free heuristic: a report of the same members.
	backed := out
	out, err = run(t, dlsched, "-platform", plat, "-heuristic", "g", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	rep = service.SolveReport{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("g -json output malformed: %v\n%s", err, out)
	}
	if a, b := memberNames(t, backed), memberNames(t, out); !slices.Equal(a, b) {
		t.Fatalf("model-backed -json members %v, model-free %v", a, b)
	}
	wantIndented(t, out, &rep)
	if !rep.Feasible || rep.Value <= 0 {
		t.Fatalf("report = %+v", rep)
	}

	// Text and -json print the run's one report. On a network-bound
	// platform, where MAXMIN's relaxation is degenerate and LPRG's value
	// depends on the vertex it rounds, a second solve path would show.
	tight := filepath.Join(t.TempDir(), "tight.json")
	if out, err := run(t, platgen, "-k", "10", "-seed", "1", "-maxcon", "4", "-bw", "20", "-o", tight); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, h := range []string{"g", "lpr", "lprg", "lprr"} {
		for _, obj := range []string{"maxmin", "sum"} {
			args := []string{"-platform", tight, "-heuristic", h, "-objective", obj, "-payoffs", "1,2,3,1,2,3,1,2,3,1"}
			text, err := run(t, dlsched, args...)
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", h, obj, err, text)
			}
			js, err := run(t, dlsched, append(args, "-json")...)
			if err != nil {
				t.Fatalf("%s %s -json: %v\n%s", h, obj, err, js)
			}
			rep = service.SolveReport{}
			if err := json.Unmarshal([]byte(js), &rep); err != nil {
				t.Fatalf("%s %s -json malformed: %v", h, obj, err)
			}
			want := fmt.Sprintf("value=%.4f lp-bound=%.4f", rep.Value, rep.LPBound)
			for k, thr := range rep.Throughputs {
				want += fmt.Sprintf("\n  app %-3d throughput=%.4f", k, thr)
			}
			if got := textAnswer(text); got != want {
				t.Fatalf("%s %s: text prints\n%s\n-json says\n%s", h, obj, got, want)
			}
		}
	}
}

// textAnswer is dlsched's text output cut to what a report decides: the
// value and bound, and each application's throughput.
func textAnswer(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "value="); i >= 0 {
			lines = append(lines, strings.TrimSpace(line[i:strings.Index(line, " ratio=")]))
		}
		if before, _, ok := strings.Cut(line, " (payoff"); ok && strings.HasPrefix(line, "  app ") {
			lines = append(lines, before)
		}
	}
	return strings.Join(lines, "\n")
}

// wantIndented pins dlsched -json's bytes: the CLI writes through the
// service's report encoder, whose contract is encoding/json's two-space
// indented form plus a newline — so the decoded report, re-encoded by
// encoding/json, must give the output back.
func wantIndented(t *testing.T, out string, rep *service.SolveReport) {
	t.Helper()
	want, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want)+"\n" {
		t.Fatalf("-json output is not json.MarshalIndent of its own report plus a newline:\n%s\nwant:\n%s", out, want)
	}
}

// memberNames is the sorted member names of the JSON object out.
func memberNames(t *testing.T, out string) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatal(err)
	}
	return slices.Sorted(maps.Keys(m))
}

// TestCLIDlschedBatch pins the batched what-if engine's CLI/service
// parity: dlsched -batch is deterministic run to run, and its output
// byte-diffs clean against POST /sessions/{id}/whatif/batch on a
// schedd session over the same platform.
func TestCLIDlschedBatch(t *testing.T) {
	platgen := buildTool(t, "platgen")
	dlsched := buildTool(t, "dlsched")
	schedd := buildTool(t, "schedd")
	plat := filepath.Join(t.TempDir(), "plat.json")
	if out, err := run(t, platgen, "-k", "6", "-seed", "5", "-o", plat); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	platJSON, err := os.ReadFile(plat)
	if err != nil {
		t.Fatal(err)
	}

	// A small batch with a duplicate (queries 0 and 3 are identical).
	batchBody := `{"queries":[
		{"speeds":[{"cluster":0,"value":150}]},
		{"gateways":[{"cluster":1,"value":80}],"relax":true},
		{"speeds":[{"cluster":2,"value":60}],"gateways":[{"cluster":2,"value":60}]},
		{"speeds":[{"cluster":0,"value":150}]}
	]}`
	batchFile := filepath.Join(t.TempDir(), "batch.json")
	if err := os.WriteFile(batchFile, []byte(batchBody), 0o644); err != nil {
		t.Fatal(err)
	}

	cliOut, err := run(t, dlsched, "-platform", plat, "-batch", batchFile)
	if err != nil {
		t.Fatalf("%v\n%s", err, cliOut)
	}
	var batchResp service.BatchWhatIfResponse
	if err := json.Unmarshal([]byte(cliOut), &batchResp); err != nil {
		t.Fatalf("-batch output is not a BatchWhatIfResponse: %v\n%s", err, cliOut)
	}
	if len(batchResp.Reports) != 4 || batchResp.Distinct != 3 {
		t.Fatalf("batch response = %+v", batchResp)
	}
	if !batchResp.Reports[3].Coalesced || batchResp.Reports[0].Coalesced {
		t.Fatalf("duplicate not coalesced: %+v", batchResp)
	}

	// Determinism pin: a second invocation is byte-identical.
	cliOut2, err := run(t, dlsched, "-platform", plat, "-batch", batchFile)
	if err != nil {
		t.Fatalf("%v\n%s", err, cliOut2)
	}
	if cliOut != cliOut2 {
		t.Fatal("-batch output is not deterministic across runs")
	}

	// The file is decoded strictly, like a request body: trailing
	// whitespace is fine, a second value or garbage is an error.
	for suffix, ok := range map[string]bool{"\n": true, batchBody: false, " trailing garbage": false} {
		if err := os.WriteFile(batchFile, []byte(batchBody+suffix), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := run(t, dlsched, "-platform", plat, "-batch", batchFile)
		switch {
		case ok && (err != nil || out != cliOut):
			t.Fatalf("-batch file + %q: err %v, output changed: %s", suffix, err, out)
		case !ok && (err == nil || !strings.Contains(out, "decoding batch request")):
			t.Fatalf("-batch file + %q: err %v output %s, want a decoding error", suffix, err, out)
		}
	}

	// Service parity pin: the schedd endpoint answers with the same
	// bytes for the same platform and batch.
	cmd := exec.Command(schedd, "-addr", "127.0.0.1:0", "-pool", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop; the test SIGTERMs first
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "schedd: listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"platform": `+string(platJSON)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var created service.CreateSessionResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatalf("create: %v\n%s", err, raw)
	}
	resp, err = http.Post(base+"/sessions/"+created.ID+"/whatif/batch", "application/json", strings.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch endpoint: status %d\n%s", resp.StatusCode, raw)
	}
	if string(raw) != cliOut {
		t.Fatalf("CLI batch output does not byte-diff clean against the endpoint:\nCLI:\n%s\nHTTP:\n%s", cliOut, raw)
	}

	// One decoder for both: a batch the endpoint refuses (an unknown
	// member inside a query), the CLI refuses.
	refused := `{"queries":[{"speeds":[{"cluster":0,"value":150,"weight":1}]}]}`
	resp, err = http.Post(base+"/sessions/"+created.ID+"/whatif/batch", "application/json", strings.NewReader(refused))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "decoding request: ") {
		t.Fatalf("batch endpoint on %s: status %d\n%s, want 400 decoding request: …", refused, resp.StatusCode, raw)
	}
	if err := os.WriteFile(batchFile, []byte(refused), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, dlsched, "-platform", plat, "-batch", batchFile); err == nil || !strings.Contains(out, "decoding batch request") {
		t.Fatalf("-batch file %s: err %v output %s, want a decoding error", refused, err, out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("schedd did not shut down cleanly: %v", err)
	}
}

func TestCLIDlschedErrors(t *testing.T) {
	dlsched := buildTool(t, "dlsched")
	if out, err := run(t, dlsched); err == nil {
		t.Fatalf("missing -platform must fail:\n%s", out)
	}
	plat := filepath.Join(t.TempDir(), "plat.json")
	if err := os.WriteFile(plat, []byte(`{"routers":1,"clusters":[{"name":"a","speed":10,"gateway":5,"router":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, dlsched, "-platform", plat, "-heuristic", "nope"); err == nil {
		t.Fatalf("unknown heuristic must fail:\n%s", out)
	}
	if out, err := run(t, dlsched, "-platform", plat, "-objective", "nope"); err == nil {
		t.Fatalf("unknown objective must fail:\n%s", out)
	}
	if out, err := run(t, dlsched, "-platform", plat, "-payoffs", "1,2"); err == nil {
		t.Fatalf("wrong payoff count must fail:\n%s", out)
	}
	// A horizon or period length the simulation or the schedule would
	// refuse fails before the solve: nothing reaches stdout.
	for _, args := range [][]string{
		{"-simulate", "-periods", "0"},
		{"-simulate", "-periods", "1"},
		{"-schedule", "-denom", "0"},
		{"-simulate", "-denom", "-1"},
	} {
		cmd := exec.Command(dlsched, append([]string{"-platform", plat}, args...)...)
		stdout, err := cmd.Output()
		if err == nil || len(stdout) != 0 {
			t.Fatalf("%v must fail before the solve: err %v, stdout:\n%s", args, err, stdout)
		}
	}
	// Without -simulate the horizon is not read.
	if out, err := run(t, dlsched, "-platform", plat, "-periods", "0", "-schedule"); err != nil {
		t.Fatalf("-periods 0 without -simulate must succeed: %v\n%s", err, out)
	}
}

// TestCLISchedd drives the scheduling daemon end to end at the binary
// level: start on a random port, create a session, run one
// query/what-if/epoch round trip plus a stats scrape over the JSON
// API, and shut down cleanly on SIGTERM.
func TestCLISchedd(t *testing.T) {
	platgen := buildTool(t, "platgen")
	schedd := buildTool(t, "schedd")
	plat := filepath.Join(t.TempDir(), "plat.json")
	if out, err := run(t, platgen, "-k", "6", "-seed", "5", "-o", plat); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	platJSON, err := os.ReadFile(plat)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(schedd, "-addr", "127.0.0.1:0", "-pool", "4")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop; the test SIGTERMs first

	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "schedd: listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + addr

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d\n%s", path, resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: %v\n%s", path, err, raw)
		}
		return out
	}

	created := post("/sessions", `{"platform": `+string(platJSON)+`}`)
	id, _ := created["id"].(string)
	if id == "" || created["created"] != true {
		t.Fatalf("create response = %v", created)
	}
	q := post("/sessions/"+id+"/query", "")
	if f, _ := q["feasible"].(bool); !f {
		t.Fatalf("query response = %v", q)
	}
	wi := post("/sessions/"+id+"/whatif", `{"gateways":[{"cluster":0,"value":120}]}`)
	if f, _ := wi["feasible"].(bool); !f {
		t.Fatalf("what-if response = %v", wi)
	}
	ep := post("/sessions/"+id+"/epoch", `{"speedFactor":[0.9,0.9,0.9,0.9,0.9,0.9]}`)
	if e, _ := ep["epoch"].(float64); e != 1 {
		t.Fatalf("epoch response = %v", ep)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats service.PoolStatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats: %v\n%s", err, raw)
	}
	if stats.Live != 1 || stats.Total.ColdSolves != 1 || stats.Total.ColdFallbacks != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Total.WarmSolves != 2 {
		t.Fatalf("warm solves = %d, want the what-if's and the epoch's restarts (a query never solves)", stats.Total.WarmSolves)
	}

	// Clean shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("schedd did not shut down cleanly: %v", err)
	}
}

// startSchedd launches the daemon with the given extra flags and
// returns the process plus its base URL once the listener is up.
func startSchedd(t *testing.T, bin string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-pool", "4"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // backstop
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "schedd: listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", line)
	}
	// Drain the rest of stdout so the child never blocks on a full
	// pipe (recovery/join lines).
	go io.Copy(io.Discard, rd) //nolint:errcheck
	return cmd, "http://" + addr
}

// scheddPost posts to the daemon and returns the raw body plus the
// decoded object, failing on any non-2xx.
func scheddPost(t *testing.T, base, path, body string) ([]byte, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d\n%s", path, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: %v\n%s", path, err, raw)
	}
	return raw, out
}

// canonicalAnswer strips the fields an answer legitimately varies in
// across process restarts (the cache markers) and re-marshals with
// sorted keys for byte comparison.
func canonicalAnswer(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("canonicalAnswer: %v\n%s", err, raw)
	}
	delete(m, "cached")
	delete(m, "coalesced")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCLIScheddCrashRecovery kills the daemon mid-traffic with
// SIGKILL — no shutdown hook runs — and restarts it over the same
// snapshot directory: every session must come back warm (zero cold
// rebuilds) and answer byte-identically to before the crash.
func TestCLIScheddCrashRecovery(t *testing.T) {
	platgen := buildTool(t, "platgen")
	schedd := buildTool(t, "schedd")
	plat := filepath.Join(t.TempDir(), "plat.json")
	if out, err := run(t, platgen, "-k", "6", "-seed", "7", "-o", plat); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	platJSON, err := os.ReadFile(plat)
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(t.TempDir(), "snaps")

	cmd, base := startSchedd(t, schedd, "-snapshot-dir", snapDir, "-snapshot-interval", "1h")
	_, created := scheddPost(t, base, "/sessions", `{"platform": `+string(platJSON)+`}`)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("create response = %v", created)
	}
	// Commit drift so the recovered state is not the creation state,
	// then capture the committed answer.
	_, ep := scheddPost(t, base, "/sessions/"+id+"/epoch", `{"speedFactor":[0.85,0.9,0.95,0.9,0.85,0.9],"gatewayFactor":[1.1,0.9,1,1,0.95,1.05]}`)
	if e, _ := ep["epoch"].(float64); e != 1 {
		t.Fatalf("epoch response = %v", ep)
	}
	preRaw, _ := scheddPost(t, base, "/sessions/"+id+"/query", "")
	pre := canonicalAnswer(t, preRaw)

	// Crash: SIGKILL, no cleanup runs. The snapshot on disk is the one
	// the epoch commit hook persisted.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // the kill error is expected

	cmd2, base2 := startSchedd(t, schedd, "-snapshot-dir", snapDir, "-snapshot-interval", "1h")
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sample := func(series string) float64 {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", series, err)
				}
				return f
			}
		}
		t.Fatalf("no %s in /metrics:\n%s", series, raw)
		return 0
	}
	if warm, cold := sample("schedd_cluster_warm_rebuilds_total"), sample("schedd_cluster_cold_rebuilds_total"); cold != 0 || warm < 1 {
		t.Fatalf("recovery rebuilds: warm=%v cold=%v, want >=1/0", warm, cold)
	}
	if got := sample("schedd_solver_cold_solves_total"); got != 0 {
		t.Fatalf("recovery cold-solved %v times", got)
	}
	postRaw, _ := scheddPost(t, base2, "/sessions/"+id+"/query", "")
	if got := canonicalAnswer(t, postRaw); got != pre {
		t.Fatalf("post-recovery answer differs from pre-crash:\n%s\nvs\n%s", got, pre)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("schedd did not shut down cleanly: %v", err)
	}
}

// TestCLIScheddSigtermImmediatelyAfterListen pins the startup/shutdown
// race: the listen line is the daemon's "ready" signal, so a SIGTERM
// sent the moment it is read must already find the handler installed
// and produce a clean exit 0 — not the default disposition's
// "signal: terminated". The snapshot dir puts store setup and recovery
// between the line and the serve loop, the window the handler used to
// be missing in.
func TestCLIScheddSigtermImmediatelyAfterListen(t *testing.T) {
	schedd := buildTool(t, "schedd")
	for i := 0; i < 20; i++ {
		cmd, _ := startSchedd(t, schedd, "-snapshot-dir", t.TempDir(), "-quiet")
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("iteration %d: schedd did not shut down cleanly: %v", i, err)
		}
	}
}

func TestCLIExperimentsSmallSweep(t *testing.T) {
	bin := buildTool(t, "experiments")
	outdir := t.TempDir()
	out, err := run(t, bin, "-exp", "fig5", "-ks", "5", "-platforms", "1", "-outdir", outdir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "== fig5 ==") || !strings.Contains(out, "SUM(LPRG)/LP") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(outdir, "fig5.txt")); err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	// CSV mode.
	out, err = run(t, bin, "-exp", "fig5", "-ks", "5", "-platforms", "1", "-csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "k,platforms,") {
		t.Fatalf("csv output malformed:\n%s", out)
	}
}

func TestCLIExperimentsBadFlags(t *testing.T) {
	bin := buildTool(t, "experiments")
	if out, err := run(t, bin, "-exp", "fig5", "-ks", "banana"); err == nil {
		t.Fatalf("bad -ks must fail:\n%s", out)
	}
	// Out-of-range sizes fail before any sweep runs: no artifact is
	// printed. (-platforms -1 once ran the default 8 platforms, and
	// -ks 5,0 ran K=5's sweeps before failing at K=0.)
	for _, args := range [][]string{
		{"-platforms", "-1"},
		{"-workers", "-1"},
		{"-lprr-max-k", "-1"},
		{"-ks", "5,0"},
		{"-ks", "-5"},
	} {
		out, err := run(t, bin, append([]string{"-exp", "all"}, args...)...)
		if err == nil || strings.Contains(out, "==") {
			t.Fatalf("%v must fail before any sweep: err %v\n%s", args, err, out)
		}
	}
	// An -exp outside the §6 artifacts (a typo, or a retired sweep) must
	// fail naming the valid values, not succeed printing nothing.
	for _, exp := range []string{"bogus", "chaos"} {
		out, err := run(t, bin, "-exp", exp)
		if err == nil || !strings.Contains(out, "fig6-tight") {
			t.Fatalf("-exp %s must fail listing the valid values: err %v\n%s", exp, err, out)
		}
	}
}
