// Command galsim-trace inspects workload instruction trace files: their
// header and provenance, and the statistics of the stream they hold.
//
//	galsim-trace inspect gcc.trace    # header + digest
//	galsim-trace stats gcc.trace      # stream statistics
//
// Recording, replaying, fast-forwarding and resuming are runs, and every
// run goes through the galsim command:
//
//	galsim -bench gcc -machine gals -record gcc.trace
//	galsim -replay gcc.trace -machine gals
//	galsim -replay gcc.trace -machine gals -warmup 50000 -snapshot-out warm.snap
//	galsim -replay gcc.trace -machine gals -snapshot-in warm.snap
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"galsim/internal/isa"
	"galsim/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "galsim-trace: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsim-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: galsim-trace <command> <trace-file>

commands:
  inspect  print a trace's header, provenance and content digest
  stats    decode a trace and print stream statistics (mix, branches, memory)

Runs go through galsim (same machine flags as any galsim run):
  record          galsim -bench gcc -record gcc.trace
  replay          galsim -replay gcc.trace -machine gals
  fast-forward    galsim -replay gcc.trace -machine gals -warmup N -snapshot-out warm.snap
  replay -from    galsim -replay gcc.trace -machine gals -snapshot-in warm.snap
`)
}

// traceArg parses a subcommand's arguments, which are exactly one trace
// file.
func traceArg(cmd string, args []string) (string, error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: usage: galsim-trace %s <file>", cmd, cmd)
	}
	return fs.Arg(0), nil
}

func cmdInspect(args []string) error {
	path, err := traceArg("inspect", args)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	meta := r.Meta()
	fmt.Printf("trace    %s (%d bytes)\n", path, len(raw))
	fmt.Printf("version  %d\n", trace.Version)
	fmt.Printf("workload %s\n", meta.Name)
	fmt.Printf("recorded %d committed instructions\n", meta.Instructions)
	fmt.Printf("sha256   %x\n", sha256.Sum256(raw))
	if meta.MachineDigest != "" {
		fmt.Printf("machine  %s\n", meta.MachineDigest)
	}
	if len(meta.SpecJSON) > 0 {
		fmt.Printf("spec     %s\n", meta.SpecJSON)
	}
	return nil
}

func cmdStats(args []string) error {
	file, err := traceArg("stats", args)
	if err != nil {
		return err
	}
	t, err := trace.Load(file)
	if err != nil {
		return err
	}
	s := t.Stats
	fmt.Printf("workload %s: %d records\n", t.Meta.Name, s.Records)
	fmt.Printf("  correct path  %d instructions, pc range %#x..%#x\n", s.Instrs, s.MinPC, s.MaxPC)
	fmt.Printf("  wrong path    %d instructions in %d excursions (%.1f%% of fetch)\n",
		s.WrongPath, s.Excursions, 100*float64(s.WrongPath)/float64(s.Instrs+s.WrongPath))
	if s.Branches > 0 {
		fmt.Printf("  branches      %d (%.1f%%), %.1f%% taken\n",
			s.Branches, 100*float64(s.Branches)/float64(s.Instrs), 100*float64(s.BranchTaken)/float64(s.Branches))
	}
	fmt.Printf("  memory ops    %d (%.1f%%)\n", s.MemOps, 100*float64(s.MemOps)/float64(s.Instrs))
	fmt.Println("  class mix:")
	for c := 0; c < isa.NumClasses; c++ {
		if s.ByClass[c] == 0 {
			continue
		}
		fmt.Printf("    %-8s %8d  %5.1f%%\n", isa.Class(c), s.ByClass[c], 100*float64(s.ByClass[c])/float64(s.Instrs))
	}
	return nil
}
