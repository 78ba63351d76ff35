// The ticketing system: renders failure events into crash problem tickets
// (free text + repair durations) and generates the background volume of
// non-crash problem tickets that dominates the ticket database (Table II).
#pragma once

#include <array>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/failures.h"
#include "src/sim/fleet.h"
#include "src/trace/trace_writer.h"
#include "src/util/rng.h"

namespace fa::sim {

// Emits one crash ticket per failure event, with class-specific LogNormal
// repair times (Table IV) and class-conditioned ticket text. Large incidents
// can lose tickets when the monitoring server itself is affected
// (Section IV-E); the incident's first event is never lost. Ticket rendering
// fans out over the thread pool with one stream per event; ids and row order
// stay in event order, committed block-wise while the next block renders
// (block_pipeline.h), so memory stays bounded when the writer streams to
// disk. Returns the number of crash tickets emitted
// per subsystem (input to the background-ticket budget).
std::array<int, trace::kSubsystemCount> emit_crash_tickets(
    const SimulationConfig& config, const Fleet& fleet,
    std::vector<FailureEvent> events, trace::TraceWriter& writer);

// Emits non-crash background tickets so each subsystem's total ticket count
// matches its Table II volume; `crash_count` is emit_crash_tickets' return
// value. One stream per ticket; parallel, order-stable, block-wise commits.
void emit_background_tickets(
    const SimulationConfig& config, const Fleet& fleet,
    const std::array<int, trace::kSubsystemCount>& crash_count,
    trace::TraceWriter& writer);

}  // namespace fa::sim
