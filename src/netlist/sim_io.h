// Reader/writer for the Berkeley ".sim" switch-level netlist format used
// by esim and Crystal, with a few documented dialect extensions.
//
// Supported records (one per line, '|' introduces a comment line):
//
//   | units: <centimicrons>        header; dimension unit (default 100,
//                                  i.e. 1 file unit = 1 micron)
//   e <gate> <src> <drn> <l> <w>   n-enhancement transistor
//   n <gate> <src> <drn> <l> <w>   synonym for 'e'
//   d <gate> <src> <drn> <l> <w>   n-depletion transistor
//   p <gate> <src> <drn> <l> <w>   p-enhancement transistor
//   c <node> <cap_fF>              lumped capacitance to ground
//   C <node1> <node2> <cap_fF>     internodal cap; lumped to ground on
//                                  both terminals (Crystal's treatment)
//
// Dialect extensions for node roles (Crystal keeps these in command files;
// here they travel with the netlist so a .sim file is self-contained):
//
//   @vdd <name>...       power rails
//   @gnd <name>...       ground rails
//   @in <name>...        chip inputs
//   @out <name>...       observation points
//   @precharged <name>.. dynamic nodes precharged high
//   @set <name>=<0|1>... nodes pinned to a constant logic value
//                        (Crystal's "set" command; kills false paths)
//
// Nodes named "vdd"/"vdd!" or "gnd"/"gnd!"/"vss" (case-insensitive) are
// recognized as rails automatically.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.h"

namespace sldm {

/// Parses a .sim stream (read to its end, then parsed as one buffer).
/// Throws ParseError on malformed input,
/// including dimensions and caps outside their physical ranges
/// (FORMATS.md section 1).  `origin` is used in error messages.
Netlist read_sim(std::istream& in, const std::string& origin = "<stream>");

/// Parses a .sim file from disk, read whole with one sized read().
/// Throws Error if it is unreadable or not a regular file.
Netlist read_sim_file(const std::string& path);

/// Writes `nl` in the dialect above.  Dimensions are written in microns
/// (units header 100).  Only nonzero explicit node caps are emitted.
void write_sim(const Netlist& nl, std::ostream& out);

/// Writes to a file.  Throws Error if the file cannot be created.
void write_sim_file(const Netlist& nl, const std::string& path);

/// Round-trip convenience used by tests: serialize then reparse.
Netlist reparse(const Netlist& nl);

}  // namespace sldm
