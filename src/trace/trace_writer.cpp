#include "src/trace/trace_writer.h"

#include "src/util/error.h"

namespace fa::trace {

ServerId TraceWriter::add_server(ServerRecord record) {
  const ServerId id{next_server_++};
  record.id = id;
  do_add_server(record);
  return id;
}

namespace {

void check_subsystem(const Ticket& ticket) {
  require(ticket.subsystem < kSubsystemCount,
          "TraceWriter: ticket with invalid subsystem");
}

}  // namespace

TicketId TraceWriter::add_ticket(Ticket ticket) {
  check_subsystem(ticket);
  const TicketId id{next_ticket_++};
  ticket.id = id;
  ++tickets_by_subsystem_[ticket.subsystem];
  do_add_ticket(std::move(ticket));
  return id;
}

void TraceWriter::add_tickets(std::span<Ticket> tickets) {
  for (const Ticket& ticket : tickets) check_subsystem(ticket);
  for (Ticket& ticket : tickets) {
    ticket.id = TicketId{next_ticket_++};
    ++tickets_by_subsystem_[ticket.subsystem];
  }
  do_add_tickets(tickets);
}

void TraceWriter::do_add_tickets(std::span<Ticket> tickets) {
  for (Ticket& ticket : tickets) do_add_ticket(std::move(ticket));
}

void TraceWriter::add_weekly_usage(const WeeklyUsage& usage) {
  do_add_weekly_usage(usage);
}

void TraceWriter::add_power_event(const PowerEvent& event) {
  do_add_power_event(event);
}

void TraceWriter::add_monthly_snapshot(const MonthlySnapshot& snapshot) {
  do_add_monthly_snapshot(snapshot);
}

IncidentId TraceWriter::new_incident() { return IncidentId{next_incident_++}; }

void DatabaseTraceWriter::do_add_server(const ServerRecord& record) {
  const ServerId assigned = db_.add_server(record);
  require(assigned == record.id,
          "DatabaseTraceWriter: writer/database server id mismatch");
}

void DatabaseTraceWriter::do_add_ticket(Ticket ticket) {
  const TicketId expected = ticket.id;
  const TicketId assigned = db_.add_ticket(std::move(ticket));
  require(assigned == expected,
          "DatabaseTraceWriter: writer/database ticket id mismatch");
}

void DatabaseTraceWriter::do_add_tickets(std::span<Ticket> tickets) {
  for (Ticket& ticket : tickets) do_add_ticket(std::move(ticket));
}

}  // namespace fa::trace
