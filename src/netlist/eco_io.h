// Reader for ECO edit scripts: small text files describing incremental
// engineering-change-order edits to an existing netlist (the `sldm eco`
// subcommand's input; see FORMATS.md).
//
// Records (one per line, '|' introduces a comment):
//
//   width  <gate> <src> <drn> <microns>   set channel width of matching devices
//   length <gate> <src> <drn> <microns>   set channel length
//   flow   <gate> <src> <drn> <s>d|d>s|both>  re-annotate signal flow
//   cap    <node> <fF>                    replace node's explicit lumped cap
//   addcap <node> <fF>                    add to node's explicit lumped cap
//   set    <node> <0|1|free>              pin node to a value / release it
//   node   <name>                         create a node
//   transistor <e|n|d|p> <gate> <src> <drn> <l_um> <w_um> [flow=s>d|d>s]
//                                         create a transistor
//
// Devices are addressed by their terminal node names; `<src> <drn>` also
// matches a device with the two channel terminals swapped.  A record
// applies to every matching device (parallel fingers resize together);
// matching nothing is an error.  Nodes referenced by every record except
// `node`/`transistor` must already exist.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.h"

namespace sldm {

/// Parses and applies an edit script to `nl`, in order.  Returns the
/// number of records applied.  Throws ParseError on malformed records,
/// values outside the .sim physical ranges (FORMATS.md section 1),
/// unknown node names, or records matching no device; edits up to the
/// failing line remain applied (the change log records exactly what
/// happened).
std::size_t apply_eco(std::istream& in, Netlist& nl,
                      const std::string& origin = "<stream>");

/// File form.  Throws Error if unreadable or not a regular file.
std::size_t apply_eco_file(const std::string& path, Netlist& nl);

}  // namespace sldm
