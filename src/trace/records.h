// Flat record types of the three data sources the paper joins:
// the inventory (server configuration) DB, the ticket DB, and the resource
// monitoring DB. Fields the paper reports as unavailable for PMs (disk
// capacity/count, disk/network usage) are std::optional and left empty by
// the simulator for PMs, so the analysis faces the same data gaps.
#pragma once

#include <optional>
#include <string>

#include "src/trace/types.h"
#include "src/util/sim_time.h"

namespace fa::trace {

// Inventory DB row: one machine and its (static) configuration.
struct ServerRecord {
  ServerId id;
  MachineType type = MachineType::kPhysical;
  Subsystem subsystem = 0;

  int cpu_count = 1;       // processors (PM) / vCPUs (VM)
  double memory_gb = 1.0;  // memory size in GB
  // Disk configuration is only recorded for VMs in the paper's dataset.
  std::optional<double> disk_gb;
  std::optional<int> disk_count;

  // VMs: hosting box; PMs are stand-alone (invalid BoxId).
  BoxId host_box;

  // First occurrence in the monitoring DB; the paper's proxy for the VM
  // creation date (Section III-B). Records starting exactly at the DB begin
  // are left-censored and excluded from age analysis.
  TimePoint first_record = 0;
};

// Ticket DB row. `true_class` is simulation ground truth carried for
// classifier evaluation only; the analysis pipeline classifies from the
// description/resolution text exactly as the paper does.
struct Ticket {
  TicketId id;
  IncidentId incident;   // tickets of one failure incident share this
  ServerId server;       // affected machine (a background ticket may have none)
  Subsystem subsystem = 0;
  bool is_crash = false;  // crash tickets vs background problem tickets
  FailureClass true_class = FailureClass::kOther;

  TimePoint opened = 0;  // failure timestamp (ticket issuing time)
  TimePoint closed = 0;  // ticket closing time; repair time = closed - opened

  std::string description;
  std::string resolution;

  Duration repair_time() const { return closed - opened; }
};

// Monitoring DB row: weekly average resource usage for one machine.
// Disk and network usage are only collected for VMs (paper Section V-B.2).
struct WeeklyUsage {
  ServerId server;
  int week = 0;            // index within the ticket observation year
  double cpu_util = 0.0;   // [0, 100] %
  double mem_util = 0.0;   // [0, 100] %
  std::optional<double> disk_util;  // [0, 100] %
  std::optional<double> net_kbps;   // transfer volume
};

// Monitoring DB row: power-state transition reconstructed from the 15-min
// samples (the simulator stores transitions; the 15-min series can be
// expanded on demand).
struct PowerEvent {
  ServerId server;
  TimePoint at = 0;
  bool powered_on = false;  // state after the event
};

// Monitoring DB row: monthly placement snapshot for a VM; `consolidation` is
// the number of VMs on the same hosting box during that month.
struct MonthlySnapshot {
  ServerId server;
  int month = 0;  // index within the ticket observation year
  BoxId box;
  int consolidation = 1;
};

}  // namespace fa::trace
