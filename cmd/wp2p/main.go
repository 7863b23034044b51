// Command wp2p is the repo's one entry point: it regenerates the paper's
// figures on the simulator, runs declarative scenarios, deploys the same
// protocol code over real loopback sockets, and reads back every file format
// it writes. The usage text below lists the subcommands; session.go holds the
// flag set the simulated ones share, read.go the ones that only read files.
package main

import (
	"fmt"
	"io"
	"os"
)

const usage = `usage: wp2p <subcommand> [flags] [args]

  wp2p run      [flags] [experiment ...]  registry experiments (default: all) as text tables
  wp2p figures  [flags] [-o report.md]    every experiment as one Markdown report
  wp2p scenario [flags] file.json ...     run wp2p.scenario.v1 files
  wp2p live     [flags]                   a live BitTorrent swarm over loopback sockets

  wp2p validate [-min-samples n] file ... check -json, -timeseries, -digest and scenario files against the
                                          rules of the format each names (wp2p.<format>.v1); runs nothing
  wp2p bisect   A.digest B.digest         first diverging event window of two -digest streams
                                          (exit status 0 identical, 1 diverged, 2 unreadable)
  wp2p timeline [flags] file.json         a -timeseries export as sparklines, or a page with -html

"wp2p <subcommand> -h" lists the flags; "wp2p run -list" the experiment ids.
Output files are created, and the command line checked, before anything runs:
exit status 2 when the command line cannot work, 1 for any other failure.
`

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run": cmdRun, "figures": cmdFigures, "scenario": cmdScenario, "live": cmdLive,
	"validate": cmdValidate, "bisect": cmdBisect, "timeline": cmdTimeline,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable signature; it returns the status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:], stdout, stderr)
		}
		if h := args[0]; h == "help" || h == "-h" || h == "-help" || h == "--help" {
			fmt.Fprint(stdout, usage)
			return 0
		}
		fmt.Fprintf(stderr, "wp2p: unknown subcommand %q\n\n", args[0])
	}
	fmt.Fprint(stderr, usage)
	return 2
}
