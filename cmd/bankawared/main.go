// Command bankawared runs the partitioning-experiment daemon and its
// client. The daemon accepts simulation jobs (one Table III set, the full
// Figs. 8/9 campaign, or a Fig. 7 Monte Carlo) over an HTTP/JSON API,
// executes them on a bounded queue with per-job priorities and deadlines,
// streams live progress and epoch samples over SSE, and persists every run
// report durably; on SIGTERM it drains — in-flight jobs finish or
// checkpoint, and a restarted daemon resumes them to byte-identical
// reports.
//
// Serve:
//
//	bankawared serve -addr :8321 -dir ./bankawared-data
//	bankawared serve -addr 127.0.0.1:0 -addr-file addr.txt -jobs 2
//
// Distributed fleet — one coordinator shards each campaign into leased
// work units; worker daemons pull, execute and upload them, and the
// coordinator journals the uploaded units and merges them into a report
// byte-identical to a single-node run of the same spec:
//
//	bankawared serve -addr :8321 -dir ./coord-data -coordinator
//	bankawared serve -addr :0 -dir ./w1-data -worker http://localhost:8321 -worker-name w1
//	bankawared serve -addr :0 -dir ./w2-data -worker http://localhost:8321 -worker-name w2
//	bankawared shards -addr localhost:8321 -id job-000001
//
// Client (against a running daemon):
//
//	echo '{"kind":"set","set":{"set":1}}' | bankawared submit -addr localhost:8321
//	bankawared submit -addr localhost:8321 -spec job.json -wait
//	bankawared submit -addr localhost:8321 -spec job.json -idempotency-key run-42
//	bankawared watch   -addr localhost:8321 -id job-000001
//	bankawared get     -addr localhost:8321 -id job-000001
//	bankawared report  -addr localhost:8321 -id job-000001 > report.json
//	bankawared report  -addr localhost:8321 -id job-000001 -o report.json
//	bankawared list    -addr localhost:8321 -state done -limit 50
//	bankawared cancel  -addr localhost:8321 -id job-000001
//	bankawared diff    -addr localhost:8321 -a job-000001 -b job-000002
//
// submit prints the job's ID alone on stdout (diagnostics go to stderr), so
// shell scripts can capture it. Submission is idempotent: resubmitting a
// spec the daemon has already accepted returns the existing job's ID (a
// note on stderr says so) instead of running it again, and -idempotency-key
// scopes that dedup to an explicit client key. report emits the stored
// report bytes verbatim — byte-identical to running the same campaign
// through the library directly; with -o it writes the report to a file,
// keeps the server's ETag in a .etag sidecar, and skips the download when
// the daemon answers 304 Not Modified on the next fetch.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"bankaware/internal/ledger"
	"bankaware/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serve(args)
	case "submit":
		err = submit(args)
	case "watch":
		err = watch(args)
	case "get":
		err = get(args)
	case "report":
		err = report(args)
	case "list":
		err = list(args)
	case "cancel":
		err = cancel(args)
	case "shards":
		err = shards(args)
	case "diff":
		err = diff(args)
	case "verify":
		err = verify(args)
	case "scrub":
		err = scrub(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bankawared:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bankawared <command> [flags]

commands:
  serve    run the daemon
  submit   submit a job spec (from -spec or stdin); prints the job ID
           (idempotent: a duplicate spec returns the existing job)
  watch    stream a job's SSE events
  get      print one job record
  report   print a finished job's report bytes verbatim
           (-o writes a file and refetches conditionally via ETag)
  list     print job records (-state/-limit/-page filter and paginate)
  cancel   cancel a queued or running job
  shards   print a distributed job's live shard table
  diff     compare two finished jobs' reports
  verify   fetch a report and its ledger inclusion proof, and check the
           bytes end to end against the daemon's Merkle root
  scrub    run an integrity scrub (-addr: one pass on a live daemon;
           -dir: offline over a store directory)

run "bankawared <command> -h" for the command's flags`)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address (use port 0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		dir      = fs.String("dir", "bankawared-data", "durable store directory")
		jobs     = fs.Int("jobs", 1, "jobs executing concurrently")
		queueCap = fs.Int("queue", 256, "waiting-queue capacity (submissions beyond it get 429)")
		parallel = fs.Int("parallel", 0, "default per-job worker bound (0 = all cores)")
		grace    = fs.Duration("drain-grace", 30*time.Second, "how long SIGTERM lets in-flight jobs finish before checkpointing them")

		coordinator = fs.Bool("coordinator", false, "coordinator mode: shard campaigns to pulling workers instead of executing locally")
		leaseTTL    = fs.Duration("lease-ttl", 15*time.Second, "shard lease time-to-live (coordinator mode)")
		shardUnits  = fs.Int("shard-units", 0, "max campaign units per shard (0 = units/16)")
		workerOf    = fs.String("worker", "", "also pull shards from this coordinator URL")
		workerName  = fs.String("worker-name", "", "worker identity for -worker (default: the bound address)")
		scrubEvery  = fs.Duration("scrub-every", 10*time.Minute, "background integrity-scrub interval (0 disables)")
	)
	fs.Parse(args)

	svc, err := service.New(service.Config{
		Dir: *dir, Jobs: *jobs, QueueCap: *queueCap, Workers: *parallel,
		Coordinator: *coordinator, LeaseTTL: *leaseTTL, ShardUnits: *shardUnits,
		ScrubEvery: *scrubEvery,
	})
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	mode := "serving"
	if *coordinator {
		mode = "coordinating"
	}
	fmt.Fprintf(os.Stderr, "bankawared: %s on http://%s (store %s)\n", mode, bound, *dir)

	// A daemon can be a worker on top of its own API: it pulls shards from
	// the coordinator while still accepting (and deduplicating) direct
	// local submissions against its own store.
	var worker *service.Worker
	if *workerOf != "" {
		name := *workerName
		if name == "" {
			name = bound
		}
		worker, err = service.NewWorker(service.WorkerConfig{
			Coordinator: base(*workerOf), Name: name, Workers: *parallel,
		})
		if err != nil {
			return err
		}
		if err := worker.Start(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bankawared: worker %q pulling from %s\n", name, base(*workerOf))
	}

	server := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "bankawared: %v — draining (grace %s)\n", sig, *grace)
		if worker != nil {
			// Graceful: the in-flight shard fails back to the coordinator so
			// its lease releases now instead of expiring.
			worker.Close()
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		svc.Drain(drainCtx)
		cancel()
		svc.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		server.Shutdown(shutCtx)
		fmt.Fprintln(os.Stderr, "bankawared: drained")
		return nil
	case err := <-errCh:
		if worker != nil {
			worker.Close()
		}
		svc.Close()
		return err
	}
}

func shards(args []string) error {
	fs := flag.NewFlagSet("shards", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "coordinator address")
		id   = fs.String("id", "", "job ID")
	)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("shards needs -id")
	}
	return printBody(base(*addr) + "/v1/jobs/" + *id + "/shards")
}

// base turns an -addr value into a URL prefix.
func base(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// apiError extracts the {"error": ...} body of a non-2xx response.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8321", "daemon address")
		spec    = fs.String("spec", "", "job spec JSON file (default: read stdin)")
		wait    = fs.Bool("wait", false, "watch the job until it reaches a terminal state")
		idemKey = fs.String("idempotency-key", "", "dedupe on this key instead of the spec's content hash")
		fidel   = fs.String("fidelity", "", "execution engine override: detailed|fast (stamped into the spec)")
	)
	fs.Parse(args)

	var in io.Reader = os.Stdin
	if *spec != "" {
		f, err := os.Open(*spec)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	if *fidel != "" {
		// Rewrite the spec with the requested fidelity before submitting,
		// so the flag and the JSON field are the same mechanism.
		body, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			return fmt.Errorf("parsing job spec: %w", err)
		}
		fj, _ := json.Marshal(*fidel)
		raw["fidelity"] = fj
		body, err = json.Marshal(raw)
		if err != nil {
			return err
		}
		in = bytes.NewReader(body)
	}
	req, err := http.NewRequest("POST", base(*addr)+"/v1/jobs", in)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if *idemKey != "" {
		req.Header.Set("Idempotency-Key", *idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	// 202 = new job, 200 = the daemon already holds this submission (an
	// in-flight duplicate or a finished job's cached report).
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var rec service.JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		resp.Body.Close()
		return err
	}
	resp.Body.Close()
	if resp.Header.Get("X-Bankaware-Cache") == "hit" {
		fmt.Fprintf(os.Stderr, "duplicate submission: daemon already has %s (%s, state %s)\n", rec.ID, rec.Spec.Kind, rec.State)
	} else {
		fmt.Fprintf(os.Stderr, "submitted %s (%s, state %s)\n", rec.ID, rec.Spec.Kind, rec.State)
	}
	fmt.Println(rec.ID)
	if !*wait {
		return nil
	}
	return waitTerminal(*addr, rec.ID)
}

// waitTerminal follows the job's event stream (reconnecting if it drops)
// until the stored record reaches a terminal state, failing for any outcome
// but StateDone.
func waitTerminal(addr, id string) error {
	for {
		if err := streamEvents(addr, id, io.Discard); err != nil {
			return err
		}
		rec, err := fetchRecord(addr, id)
		if err != nil {
			return err
		}
		switch rec.State {
		case service.StateDone:
			return nil
		case service.StateFailed:
			return fmt.Errorf("job %s failed: %s", id, rec.Error)
		case service.StateCanceled:
			return fmt.Errorf("job %s was canceled", id)
		}
		// Still queued or running (the stream ended on a drain or hiccup);
		// poll-and-follow again.
		time.Sleep(200 * time.Millisecond)
	}
}

func fetchRecord(addr, id string) (service.JobRecord, error) {
	resp, err := http.Get(base(addr) + "/v1/jobs/" + id)
	if err != nil {
		return service.JobRecord{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.JobRecord{}, apiError(resp)
	}
	defer resp.Body.Close()
	var rec service.JobRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	return rec, err
}

// streamEvents copies the job's SSE stream to w until it ends.
func streamEvents(addr, id string, w io.Writer) error {
	resp, err := http.Get(base(addr) + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintln(w, sc.Text())
	}
	return sc.Err()
}

func watch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "daemon address")
		id   = fs.String("id", "", "job ID")
	)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("watch needs -id")
	}
	return streamEvents(*addr, *id, os.Stdout)
}

func get(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "daemon address")
		id   = fs.String("id", "", "job ID")
	)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("get needs -id")
	}
	return printBody(base(*addr) + "/v1/jobs/" + *id)
}

func report(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:8321", "daemon address")
		id    = fs.String("id", "", "job ID")
		out   = fs.String("o", "", "write the report to this file (with an ETag sidecar for conditional refetch)")
		check = fs.Bool("verify", false, "verify the fetched bytes against the daemon's ledger (inclusion proof) before emitting them")
	)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("report needs -id")
	}
	url := base(*addr) + "/v1/jobs/" + *id + "/report"
	if *out == "" {
		if !*check {
			return printBody(url)
		}
		// Verified mode buffers: nothing reaches stdout unless the bytes
		// check out against the ledger root.
		data, err := fetchBytes(url)
		if err != nil {
			return err
		}
		if err := verifyReportBytes(*addr, *id, data); err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	// Conditional download: if we hold the file and its ETag sidecar, ask
	// the daemon whether the stored report changed. Reports are immutable
	// once written, so a 304 is the steady state of every refetch.
	sidecar := *out + ".etag"
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	if tag, err := os.ReadFile(sidecar); err == nil {
		if _, err := os.Stat(*out); err == nil {
			req.Header.Set("If-None-Match", strings.TrimSpace(string(tag)))
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		fmt.Fprintf(os.Stderr, "report unchanged (304), keeping %s\n", *out)
		if *check {
			// Verify the local copy the 304 vouched for — bit-rot on the
			// client side is exactly what the proof catches.
			data, err := os.ReadFile(*out)
			if err != nil {
				return err
			}
			return verifyReportBytes(*addr, *id, data)
		}
		return nil
	case http.StatusOK:
	default:
		return apiError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if *check {
		if err := verifyReportBytes(*addr, *id, data); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		if err := os.WriteFile(sidecar, []byte(tag+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(data))
	return nil
}

// fetchBytes GETs one URL fully into memory.
func fetchBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// verifyReportBytes checks report bytes end to end against the daemon's run
// ledger: hash the bytes in hand, fetch the job's inclusion proof, confirm
// the hash matches the ledger entry, the entry's leaf recomputes, and the
// audit path reaches the advertised Merkle root. It fails closed: any
// mismatch is an error, never a warning.
func verifyReportBytes(addr, id string, data []byte) error {
	sum := sha256.Sum256(data)
	resp, err := http.Get(base(addr) + "/v1/jobs/" + id + "/proof")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	p, err := ledger.DecodeProof(resp.Body)
	if err != nil {
		return err
	}
	if err := p.Verify(hex.EncodeToString(sum[:])); err != nil {
		return fmt.Errorf("report for %s FAILED verification: %w", id, err)
	}
	fmt.Fprintf(os.Stderr, "verified %s: sha256 %s, ledger entry %d of %d, root %s\n",
		id, hex.EncodeToString(sum[:]), p.Entry.Index, p.TreeSize, p.Root)
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "daemon address")
		id   = fs.String("id", "", "job ID")
		file = fs.String("file", "", "verify this local report file instead of fetching the daemon's copy")
	)
	fs.Parse(args)
	if *id == "" && fs.NArg() > 0 {
		*id = fs.Arg(0)
	}
	if *id == "" {
		return fmt.Errorf("verify needs a job ID (-id or positional)")
	}
	var (
		data []byte
		err  error
	)
	if *file != "" {
		data, err = os.ReadFile(*file)
	} else {
		data, err = fetchBytes(base(*addr) + "/v1/jobs/" + *id + "/report")
	}
	if err != nil {
		return err
	}
	return verifyReportBytes(*addr, *id, data)
}

func scrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	var (
		addr = fs.String("addr", "", "run one scrub pass on this live daemon (POST /v1/scrub)")
		dir  = fs.String("dir", "", "scrub this store directory offline (the daemon must not be running on it)")
	)
	fs.Parse(args)
	switch {
	case (*addr == "") == (*dir == ""):
		return fmt.Errorf("scrub needs exactly one of -addr or -dir")
	case *addr != "":
		resp, err := http.Post(base(*addr)+"/v1/scrub", "application/json", nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		defer resp.Body.Close()
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	default:
		st, err := service.OpenStore(*dir)
		if err != nil {
			return err
		}
		defer st.Close()
		stats := st.Scrub(nil)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(stats)
	}
}

func list(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:8321", "daemon address")
		state = fs.String("state", "", "only jobs in this state (queued|running|done|failed|canceled)")
		limit = fs.Int("limit", 0, "page size (enables the paged response shape)")
		page  = fs.String("page", "", "opaque page token from a previous response's nextPage")
		table = fs.Bool("table", false, "render a column view (ID, KIND, FIDELITY, STATE, SUBMITTED) instead of raw JSON")
	)
	fs.Parse(args)
	q := url.Values{}
	if *state != "" {
		q.Set("state", *state)
	}
	if *limit > 0 {
		q.Set("limit", strconv.Itoa(*limit))
	}
	if *page != "" {
		q.Set("page", *page)
	}
	u := base(*addr) + "/v1/jobs"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	if !*table {
		return printBody(u)
	}
	return printJobTable(u)
}

// printJobTable renders the job listing as columns. Both response shapes
// (bare array, paged object) are accepted.
func printJobTable(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var recs []service.JobRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		var paged struct {
			Jobs     []service.JobRecord `json:"jobs"`
			NextPage string              `json:"nextPage"`
		}
		if err2 := json.Unmarshal(body, &paged); err2 != nil {
			return fmt.Errorf("decoding job listing: %w", err)
		}
		recs = paged.Jobs
		defer func() {
			if paged.NextPage != "" {
				fmt.Fprintf(os.Stderr, "next page: %s\n", paged.NextPage)
			}
		}()
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tKIND\tFIDELITY\tSTATE\tSUBMITTED")
	for _, r := range recs {
		fid := r.Spec.Fidelity
		if fid == "" {
			fid = "detailed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			r.ID, r.Spec.Kind, fid, r.State, r.SubmittedAt.Format(time.RFC3339))
	}
	return tw.Flush()
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "daemon address")
		a    = fs.String("a", "", "first job ID")
		b    = fs.String("b", "", "second job ID")
	)
	fs.Parse(args)
	if *a == "" || *b == "" {
		return fmt.Errorf("diff needs -a and -b")
	}
	return printBody(base(*addr) + "/v1/diff?a=" + *a + "&b=" + *b)
}

func printBody(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func cancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:8321", "daemon address")
		id   = fs.String("id", "", "job ID")
	)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("cancel needs -id")
	}
	resp, err := http.Post(base(*addr)+"/v1/jobs/"+*id+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
