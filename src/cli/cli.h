// The `sldm` command-line tool, as a library so tests can drive it
// in-process.  Subcommands:
//
//   sldm check <file.sim>                    structural diagnostics
//   sldm stats <file.sim>                    netlist census
//   sldm stats [--json|--prom <file|->]      with no file: render the
//                                            process-wide telemetry hub
//                                            (human-readable, JSON
//                                            aggregate, or Prometheus
//                                            exposition; in-process
//                                            embedding surface)
//   sldm time <file.sim> [options]           timing analysis
//        --load <design.sldc>                analyze a compiled design
//                                            instead of a .sim file
//                                            (skips parse + extraction
//                                            + recalibration; FORMATS.md
//                                            section 11); also accepted
//                                            by explain/eco/sim
//        --tech nmos|cmos|<file.tech>        process (default nmos;
//                                            with --load, must match the
//                                            compiled fingerprint)
//        --tables <file.slopes>              slope tables (default:
//                                            calibrate in-process)
//        --model slope|rc-tree|lumped|rph-upper|unit
//        --constraints <file.ct>             input events + budget
//        --slope-ns <x>                      default input slope
//        --paths <k>                         report k worst paths
//        --threads <n>                       stage-extraction workers
//                                            (results identical for any n)
//        --stats                             per-phase timing + per-CCC
//                                            stage census
//        --json                              with --stats: emit the
//                                            counters + metrics registry
//                                            as one JSON object
//        --trace <out.json>                  capture engine spans as
//                                            Chrome trace-event JSON
//                                            (load in chrome://tracing
//                                            or Perfetto; see FORMATS.md)
//        --prom <file|->                     after the analysis, write
//                                            the telemetry hub in
//                                            Prometheus text exposition
//                                            v0.0.4 ("-": stdout;
//                                            FORMATS.md section 13);
//                                            also accepted by eco,
//                                            compile, and stats
//        --ledger <file>                     append one JSONL run
//                                            record (design
//                                            fingerprint, version,
//                                            model, phase timings,
//                                            critical path, outcome;
//                                            FORMATS.md section 12);
//                                            SLDM_LEDGER env var is the
//                                            ambient default; also
//                                            accepted by eco, compile,
//                                            and fuzz
//   sldm explain <file.sim> <node> [options] critical-path explain trace
//        (tech/model/event options above,    re-evaluates each stage of
//        plus:)                              the critical path into the
//        --dir rise|fall                     node through the delay
//        --json                              model's audit hook; default
//                                            direction is the later
//                                            arrival; --json emits the
//                                            breakdown as one JSON object
//   sldm eco <file.sim> <file.eco> [options] incremental what-if timing
//        (time options above incl. --trace,  analyzes the circuit, applies
//        plus:)                              the edit script (FORMATS.md),
//        --verify                            and re-times via the
//        --write <out.sim>                   incremental update() path;
//                                            --verify cross-checks against
//                                            a full rebuild (exit 1 on
//                                            mismatch), --write saves the
//                                            edited netlist
//   sldm chargeshare <file.sim> [--tech ...] dynamic-node audit
//   sldm sim <file.sim> [--tech ...]         transient simulation
//        --tstop-ns <x> --csv <out.csv> --vcd <out.vcd>
//        (inputs rise at t=2ns unless --constraints is given)
//   sldm calibrate nmos|cmos --out <prefix>  fit + write tech/tables
//   sldm compile <file.sim> -o <out.sldc>    bake a CompiledDesign
//        (tech/model/threads options above)  snapshot: parse, partition,
//                                            extract stages, cache the
//                                            StageStore; with the slope
//                                            model (the default) also
//                                            calibrate and embed the
//                                            tables so later --load runs
//                                            never recalibrate
//   sldm gen random_logic [options]          write random_logic(style,
//        --style cmos|nmos                   layers, width, seed) from
//        --layers <n> --width <n>            src/gen as a .sim file (the
//        --seed <n> -o <out.sim>             benchmark's design family);
//                                            any other family name is a
//                                            usage error
//   sldm fuzz [options]                      differential fuzzing
//        --seed <n> --iterations <n>         campaigns + repro replay
//        --threads <n> --out <dir>           (see src/fuzz/)
//        --replay <path>
//   sldm ledger summarize <file.jsonl>       per-design-fingerprint
//                                            latency table over a run
//                                            ledger (--ledger /
//                                            SLDM_LEDGER output)
//   sldm bench diff <old.jsonl> <new.jsonl>  regression gate over bench
//        [--max-regress <pct>]               records (--json output of
//                                            the bench binaries): joins
//                                            by bench name on the best
//                                            wall time per side, exits
//                                            1 when any bench regressed
//                                            beyond the bound (default
//                                            10%) or nothing joined
//   sldm serve [options]                     long-lived concurrent timing
//        --max-inflight <n>                  service speaking line-
//        --workers <n>                       delimited JSON (FORMATS.md
//        --cache <n>                         section 14) on stdin/stdout,
//        --tcp <port>                        or on localhost TCP with
//        --tech nmos|cmos|<file.tech>        --tcp (port 0 picks an
//        --ledger <file>                     ephemeral port, announced on
//        --deadline-ms <n>                   stderr); designs load once
//        --max-line-bytes <n>                into an LRU cache (--cache,
//                                            default 8) and concurrent
//                                            time/explain/eco requests
//                                            share them; beyond
//                                            --max-inflight dispatched
//                                            requests new lines are
//                                            answered with a structured
//                                            "overloaded" error instead
//                                            of queueing; --tech sets the
//                                            default for loads that name
//                                            none; per-request ledger
//                                            records via --ledger /
//                                            SLDM_LEDGER; --deadline-ms
//                                            sets a server-wide default
//                                            request deadline (requests
//                                            override via "deadline_ms";
//                                            expiry answers the named
//                                            "deadline" envelope); lines
//                                            over --max-line-bytes
//                                            (default 1 MiB) are refused
//                                            with "too-large"; SIGINT /
//                                            SIGTERM drain: stop
//                                            admission, answer in-flight
//                                            requests, exit 0 (second
//                                            signal force-exits 130)
//   sldm version                             engine + snapshot-format
//                                            version
//
// Every command also honors --failpoints <spec> / SLDM_FAILPOINTS for
// deterministic fault injection at I/O boundaries (grammar and site
// inventory in FORMATS.md section 15).
//
// The command table in cli.cpp (kCommands) is the single source of
// truth for dispatch and the usage() synopsis list.
// Returns 0 on success, 1 on analysis errors, 2 on usage errors.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sldm {

/// Runs one CLI invocation.  `args` excludes the program name.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace sldm
