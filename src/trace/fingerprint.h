// A full-trace fingerprint: one hash over every row and column of all five
// tables, free text included, plus the three observation windows. Two
// traces with equal fingerprints are (up to a 64-bit hash collision) the
// same trace, so identity checks — serial vs parallel generation, a save
// and load round trip, 1 vs N load threads — can compare one number.
#pragma once

#include <cstdint>

#include "src/trace/database.h"

namespace fa::trace {

// FNV-1a over the windows, then per server (in id order) its record, its
// weekly usage, power events and monthly snapshots, then every ticket.
// Doubles hash by bit pattern, optionals by presence then value. `db` must
// be finalized.
std::uint64_t fingerprint(const TraceDatabase& db);

}  // namespace fa::trace
