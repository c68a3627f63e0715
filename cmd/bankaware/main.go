// Command bankaware prints the paper's evaluation, one subcommand per
// tool: detailed simulations, the MSA profiles, the profiler overhead
// model, the design-space studies, the Fig. 7 Monte Carlo and the trace
// utilities.
//
//	bankaware sim -set 6 -policy bankaware -show-allocation
//	bankaware sim -fig8 -parallel 8 -progress -timeout 10m
//	bankaware sim -config configs/example.json
//	bankaware sim -table3
//	bankaware profile -fig3 -report curves.json
//	bankaware overhead -tagbits 16 -sampledsets 128
//	bankaware sweep -ablation cap -faults configs/faults-example.json
//	bankaware montecarlo -trials 1000 -report fig7.json -pprof localhost:6060
//	bankaware tracer -record mcf.trace.gz -workload mcf
//
// Campaigns fan out on the parallel engine; results are identical for any
// -parallel value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bankaware/internal/experiments"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bankaware:", err)
		os.Exit(1)
	}
}

// dispatch runs the subcommand args[0] names with the remaining arguments.
func dispatch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no command\n\n%s", usage)
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "sim":
		return runSim(args)
	case "profile":
		return runProfile(args)
	case "overhead":
		return runOverhead(args)
	case "sweep":
		return runSweep(args)
	case "montecarlo":
		return runMonteCarlo(args)
	case "tracer":
		return runTracer(args)
	}
	return fmt.Errorf("unknown command %q\n\n%s", cmd, usage)
}

const usage = `usage: bankaware <command> [flags]

commands:
  sim         detailed simulation: one workload set under one policy (-set,
              -workloads or -config), Figs. 8 and 9 (-fig8), Table III (-table3)
  profile     MSA profiles: Fig. 2 histogram (-fig2), Fig. 3 curves (-fig3)
  overhead    Table II profiler hardware overhead
  sweep       Fig. 4 bank aggregation (-aggregation) and the ablations
              (-ablation profiler|epoch|cap|plru|strict)
  montecarlo  Fig. 7 Monte Carlo over random workload mixes
  tracer      record (-record), summarise (-info) and profile (-curve) traces

run "bankaware <command> -h" for the command's flags`

// shared holds the flags several subcommands take. register declares each
// of them; a subcommand registers the ones it honours, and start runs the
// setup they drive.
type shared struct {
	parallel         int
	timeout          time.Duration
	progress         bool
	report, pprof    string
	faults, fidelity string
}

// register declares the named shared flags on fs.
func (s *shared) register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "parallel":
			fs.IntVar(&s.parallel, name, 0, "worker bound (0 = all cores); results do not depend on it")
		case "timeout":
			fs.DurationVar(&s.timeout, name, 0, "abort the run after this duration (0 = none)")
		case "progress":
			fs.BoolVar(&s.progress, name, false, "render a live progress line on stderr")
		case "report":
			fs.StringVar(&s.report, name, "", "write the machine-readable JSON report to this file")
		case "pprof":
			fs.StringVar(&s.pprof, name, "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
		case "faults":
			fs.StringVar(&s.faults, name, "", "inject this JSON fault plan into every simulation or Monte Carlo trial")
		case "fidelity":
			fs.StringVar(&s.fidelity, name, "", "execution engine: detailed (default) or fast (interval model; see EXPERIMENTS.md for its accuracy envelopes)")
		default:
			panic("bankaware: no shared flag " + name)
		}
	}
}

// session is what the shared flags set up for one run: the context
// -timeout bounds, the campaign options the other flags select, and the
// registry the -pprof debug server exposes.
type session struct {
	ctx    context.Context
	cancel context.CancelFunc
	opt    experiments.Options
	debug  *metrics.Registry // nil without -pprof
	srv    *metrics.DebugServer
}

// start runs the shared flags' setup: it parses -fidelity, loads the
// -faults plan, starts the -progress printer (counting unit) and the
// -pprof debug server, whose registry also counts the engine's progress
// events, and opens the -timeout context. The caller closes the session.
func (s *shared) start(unit string) (*session, error) {
	fidelity, err := experiments.ParseFidelity(s.fidelity)
	if err != nil {
		return nil, err
	}
	ss := &session{opt: experiments.Options{Workers: s.parallel, Fidelity: fidelity}}
	if s.faults != "" {
		if ss.opt.Faults, err = faults.Load(s.faults); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, ss.opt.Faults)
	}
	if s.progress {
		ss.opt.Progress = runner.Printer(os.Stderr, unit)
	}
	if s.pprof != "" {
		ss.debug = metrics.NewRegistry()
		ss.opt.Progress = runner.CountInto(ss.debug, ss.opt.Progress)
		if ss.srv, err = metrics.StartDebugServer(s.pprof, ss.debug); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof\n", ss.srv.Addr())
	}
	if s.timeout > 0 {
		ss.ctx, ss.cancel = context.WithTimeout(context.Background(), s.timeout)
	} else {
		ss.ctx, ss.cancel = context.WithCancel(context.Background())
	}
	return ss, nil
}

// close releases the timeout context and stops the debug server.
func (ss *session) close() {
	ss.cancel()
	if ss.srv != nil {
		ss.srv.Close()
	}
}

// writeReport writes rep to path and says so on stdout, naming it what.
func writeReport(rep *metrics.Report, path, what string) error {
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s to %s\n", what, path)
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
