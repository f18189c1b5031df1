// Parser for the public Coflow-Benchmark trace format (the format of the
// Facebook FB2010-1Hr-150-0 file the paper evaluates on):
//
//   <num_racks> <num_coflows>
//   <id> <arrival_ms> <num_mappers> <m1> ... <mM> <num_reducers> <r1:sizeMB> ...
//
// Mapper entries are rack ids; reducer entries are "rack:shuffle_MB".
// Following the paper's preprocessing (Sec. V-A): each coflow becomes a
// rack-by-rack demand matrix, the per-reducer shuffle volume is divided
// uniformly across that coflow's mappers, megabytes are converted to
// transmission seconds at the paper's 100 Gb/s circuit bandwidth, and every
// coflow arrives at t = 0 (the paper's coflows are pre-buffered).
//
// The proprietary trace itself is not shipped (DESIGN.md §4 documents the
// calibrated synthetic substitute); with the real file in hand, this
// parser reproduces the paper's exact workload.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/coflow.hpp"
#include "core/types.hpp"

namespace reco {

/// Parse a Coflow-Benchmark stream.  Returns coflows with ids 0..K-1 and
/// sets `num_ports` to the rack count.  Throws std::runtime_error on
/// malformed input, a negative or NaN arrival included.
std::vector<Coflow> read_fb_trace(std::istream& in, int& num_ports);

/// File wrapper.
std::vector<Coflow> load_fb_trace(const std::string& path, int& num_ports);

/// Convert megabytes to transmission seconds at 100 Gb/s.
Time megabytes_to_seconds(double megabytes);

}  // namespace reco
