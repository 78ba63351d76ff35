#include "src/trace/columnar_io.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/out_of_core.h"
#include "src/inject/corruptor.h"
#include "src/sim/simulator.h"
#include "src/trace/chunk.h"
#include "src/trace/csv_io.h"
#include "src/trace/fingerprint.h"
#include "src/trace/sanitize.h"
#include "src/trace/trace_writer.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Field-by-field record equality between two finalized databases.
void expect_databases_equal(const TraceDatabase& a, const TraceDatabase& b) {
  EXPECT_EQ(a.window().begin, b.window().begin);
  EXPECT_EQ(a.window().end, b.window().end);
  EXPECT_EQ(a.monitoring().begin, b.monitoring().begin);
  EXPECT_EQ(a.monitoring().end, b.monitoring().end);
  EXPECT_EQ(a.onoff_tracking().begin, b.onoff_tracking().begin);
  EXPECT_EQ(a.onoff_tracking().end, b.onoff_tracking().end);

  ASSERT_EQ(a.servers().size(), b.servers().size());
  for (std::size_t i = 0; i < a.servers().size(); ++i) {
    const ServerRecord& x = a.servers()[i];
    const ServerRecord& y = b.servers()[i];
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.type, y.type);
    ASSERT_EQ(x.subsystem, y.subsystem);
    ASSERT_EQ(x.cpu_count, y.cpu_count);
    ASSERT_EQ(x.memory_gb, y.memory_gb);
    ASSERT_EQ(x.disk_gb, y.disk_gb);
    ASSERT_EQ(x.disk_count, y.disk_count);
    ASSERT_EQ(x.host_box, y.host_box);
    ASSERT_EQ(x.first_record, y.first_record);
  }
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  for (std::size_t i = 0; i < a.tickets().size(); ++i) {
    const Ticket& x = a.tickets()[i];
    const Ticket& y = b.tickets()[i];
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.incident, y.incident);
    ASSERT_EQ(x.server, y.server);
    ASSERT_EQ(x.subsystem, y.subsystem);
    ASSERT_EQ(x.is_crash, y.is_crash);
    ASSERT_EQ(x.true_class, y.true_class);
    ASSERT_EQ(x.opened, y.opened);
    ASSERT_EQ(x.closed, y.closed);
    ASSERT_EQ(x.description, y.description);
    ASSERT_EQ(x.resolution, y.resolution);
  }
  for (const ServerRecord& s : a.servers()) {
    const auto ua = a.weekly_usage_for(s.id);
    const auto ub = b.weekly_usage_for(s.id);
    ASSERT_EQ(ua.size(), ub.size());
    for (std::size_t i = 0; i < ua.size(); ++i) {
      ASSERT_EQ(ua[i].week, ub[i].week);
      ASSERT_EQ(ua[i].cpu_util, ub[i].cpu_util);
      ASSERT_EQ(ua[i].mem_util, ub[i].mem_util);
      ASSERT_EQ(ua[i].disk_util, ub[i].disk_util);
      ASSERT_EQ(ua[i].net_kbps, ub[i].net_kbps);
    }
    const auto pa = a.power_events_for(s.id);
    const auto pb = b.power_events_for(s.id);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].at, pb[i].at);
      ASSERT_EQ(pa[i].powered_on, pb[i].powered_on);
    }
    const auto sa = a.snapshots_for(s.id);
    const auto sb = b.snapshots_for(s.id);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].month, sb[i].month);
      ASSERT_EQ(sa[i].box, sb[i].box);
      ASSERT_EQ(sa[i].consolidation, sb[i].consolidation);
    }
  }
  EXPECT_EQ(a.incidents().size(), b.incidents().size());
}

class ColumnarIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fa_columnar_io_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(ColumnarIoTest, IsColumnarFileDetection) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"));
  EXPECT_TRUE(is_columnar_file(path("trace.fac")));

  save_database(db, path("csvdir"));
  EXPECT_FALSE(is_columnar_file(path("csvdir")));
  EXPECT_FALSE(is_columnar_file(path("csvdir") + "/tickets.csv"));
  EXPECT_FALSE(is_columnar_file(path("missing.fac")));
}

// The tentpole acceptance check: CSV -> columnar -> CSV is byte-exact.
TEST_F(ColumnarIoTest, CsvColumnarCsvRoundTripIsByteExact) {
  save_database(fa::testing::small_simulated_db(), path("in"));

  const TraceDatabase from_csv = load_database(path("in"));
  save_columnar(from_csv, path("trace.fac"));
  const TraceDatabase from_fac = load_columnar(path("trace.fac"));
  save_database(from_fac, path("out"));

  for (const char* file :
       {"meta.csv", "servers.csv", "tickets.csv", "weekly_usage.csv",
        "power_events.csv", "snapshots.csv"}) {
    EXPECT_EQ(read_file(dir_ / "in" / file), read_file(dir_ / "out" / file))
        << file << " changed across the columnar round trip";
  }
}

TEST_F(ColumnarIoTest, LoadColumnarPreservesEveryRecord) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"));
  const TraceDatabase loaded = load_columnar(path("trace.fac"));
  EXPECT_TRUE(loaded.finalized());
  expect_databases_equal(db, loaded);
}

TEST_F(ColumnarIoTest, SmallChunksRoundTripAcrossManyChunks) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  const FileReport report = save_columnar(db, path("tiny.fac"), 64);

  ChunkReader reader(path("tiny.fac"));
  EXPECT_GT(reader.chunk_count(columnar::Table::kTickets), 1u);
  EXPECT_EQ(reader.row_count(columnar::Table::kTickets), db.tickets().size());
  EXPECT_EQ(report.rows[static_cast<int>(columnar::Table::kServers)],
            db.servers().size());

  expect_databases_equal(db, load_columnar(path("tiny.fac")));
}

TEST_F(ColumnarIoTest, CustomWindowsAndIncidentCounterRoundTrip) {
  TraceDatabase db;
  const ObservationWindow monitoring{0, 1000 * kMinutesPerDay};
  const ObservationWindow ticket{100 * kMinutesPerDay, 600 * kMinutesPerDay};
  const ObservationWindow onoff{200 * kMinutesPerDay, 260 * kMinutesPerDay};
  db.set_windows(ticket, monitoring, onoff);
  ServerRecord s;
  s.type = MachineType::kPhysical;
  s.first_record = monitoring.begin;
  const ServerId server = db.add_server(s);
  Ticket t;
  t.incident = db.new_incident();
  t.server = server;
  t.is_crash = true;
  t.opened = ticket.begin + from_days(1.0);
  t.closed = t.opened + from_hours(2.0);
  db.add_ticket(std::move(t));
  db.finalize();

  save_columnar(db, path("tiny.fac"));
  ChunkReader reader(path("tiny.fac"));
  EXPECT_EQ(reader.window().begin, ticket.begin);
  EXPECT_EQ(reader.window().end, ticket.end);
  EXPECT_EQ(reader.monitoring().end, monitoring.end);
  EXPECT_EQ(reader.onoff_tracking().begin, onoff.begin);
  EXPECT_EQ(reader.next_incident(), 1);

  const TraceDatabase loaded = load_columnar(path("tiny.fac"));
  EXPECT_EQ(loaded.window().begin, ticket.begin);
  EXPECT_EQ(loaded.onoff_tracking().end, onoff.end);
  // The loaded database hands out fresh incident ids above the persisted
  // counter (no reuse after a round trip).
  TraceDatabase reopened = load_columnar(path("tiny.fac"));
  EXPECT_EQ(reopened.new_incident(), IncidentId{1});
}

TEST_F(ColumnarIoTest, MmapAndBufferedReadsAreEquivalent) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 256);

  ChunkReader mapped(path("trace.fac"), /*use_mmap=*/true);
  ChunkReader buffered(path("trace.fac"), /*use_mmap=*/false);
  EXPECT_TRUE(mapped.mmapped());
  EXPECT_FALSE(buffered.mmapped());

  for (columnar::Table table : columnar::kAllTables) {
    ASSERT_EQ(mapped.chunk_count(table), buffered.chunk_count(table));
    for (std::size_t c = 0; c < mapped.chunk_count(table); ++c) {
      const columnar::ChunkView va = mapped.chunk(table, c);
      const columnar::ChunkView vb = buffered.chunk(table, c);
      ASSERT_EQ(va.rows(), vb.rows());
      ASSERT_EQ(va.column_count(), vb.column_count());
    }
  }

  expect_databases_equal(load_columnar(path("trace.fac"), true),
                         load_columnar(path("trace.fac"), false));
}

TEST_F(ColumnarIoTest, TruncatedFilesAreRejected) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"), 512);
  const std::string bytes = read_file(dir_ / "trace.fac");
  ASSERT_GT(bytes.size(), 64u);

  // Truncation points: empty, header only, mid-chunk, mid-footer, one byte
  // short of a valid tail.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, bytes.size() / 2, bytes.size() - 16,
        bytes.size() - 1}) {
    write_file(dir_ / "cut.fac", bytes.substr(0, keep));
    EXPECT_THROW(ChunkReader reader(path("cut.fac")), Error)
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST_F(ColumnarIoTest, CorruptChunkFailsItsChecksum) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"), 512);
  std::string bytes = read_file(dir_ / "trace.fac");

  ChunkReader clean(path("trace.fac"));
  const columnar::ChunkInfo& first =
      clean.chunk_info(columnar::Table::kServers, 0);
  // Flip one bit inside the first server chunk's payload. The footer still
  // parses, so the reader opens — the chunk read must fail its checksum.
  bytes[first.offset + first.size / 2] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);

  ChunkReader reader(path("bad.fac"));
  EXPECT_THROW(reader.chunk(columnar::Table::kServers, 0), Error);
  EXPECT_THROW(load_columnar(path("bad.fac")), Error);
}

TEST_F(ColumnarIoTest, CorruptFooterIsRejectedAtOpen) {
  save_columnar(fa::testing::small_simulated_db(), path("trace.fac"));
  std::string bytes = read_file(dir_ / "trace.fac");
  // The footer payload sits just before the 24-byte tail.
  bytes[bytes.size() - 32] ^= 0x01;
  write_file(dir_ / "bad.fac", bytes);
  EXPECT_THROW(ChunkReader reader(path("bad.fac")), Error);
}

TEST_F(ColumnarIoTest, WrongMagicIsRejected) {
  write_file(dir_ / "bogus.fac", std::string(64, 'x'));
  EXPECT_FALSE(is_columnar_file(path("bogus.fac")));
  EXPECT_THROW(ChunkReader reader(path("bogus.fac")), Error);
  EXPECT_THROW(load_columnar(path("bogus.fac")), Error);
}

TEST_F(ColumnarIoTest, UnfinishedWriterLeavesUnreadableFile) {
  {
    ColumnarWriter writer(path("partial.fac"));
    ServerRecord s;
    s.type = MachineType::kPhysical;
    writer.add_server(s);
    // No finish(): no footer, no tail.
  }
  EXPECT_THROW(ChunkReader reader(path("partial.fac")), Error);
}

TEST_F(ColumnarIoTest, ReaderReportMatchesWriterReport) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  const FileReport written = save_columnar(db, path("trace.fac"), 1024);
  const FileReport read = ChunkReader(path("trace.fac")).report();

  EXPECT_EQ(written.rows, read.rows);
  EXPECT_EQ(written.chunks, read.chunks);
  EXPECT_EQ(written.data_bytes, read.data_bytes);
  EXPECT_EQ(written.footer_bytes, read.footer_bytes);
  ASSERT_EQ(written.columns.size(), read.columns.size());
  for (std::size_t i = 0; i < written.columns.size(); ++i) {
    EXPECT_EQ(written.columns[i].name, read.columns[i].name);
    EXPECT_EQ(written.columns[i].bytes, read.columns[i].bytes);
    EXPECT_EQ(written.columns[i].dict_entries, read.columns[i].dict_entries);
  }
}

// The streamed writer must emit bit-identical files at any --threads.
TEST_F(ColumnarIoTest, StreamedWritesAreThreadCountDeterministic) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);

  ThreadPool::set_default_thread_count(1);
  {
    ColumnarTraceWriter writer(path("t1.fac"));
    sim::simulate_to(config, writer);
  }
  ThreadPool::set_default_thread_count(8);
  {
    ColumnarTraceWriter writer(path("t8.fac"));
    sim::simulate_to(config, writer);
  }
  ThreadPool::set_default_thread_count(0);

  const std::string a = read_file(dir_ / "t1.fac");
  const std::string b = read_file(dir_ / "t8.fac");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "streamed columnar output depends on thread count";
}

// A batch ticket commit encodes its columns in parallel; the bytes must be
// identical to the equivalent sequence of per-ticket appends at any thread
// count, including batches that straddle chunk boundaries.
TEST_F(ColumnarIoTest, BatchTicketCommitIsByteIdenticalToPerTicket) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  ASSERT_GT(db.tickets().size(), 256u);  // several 256-row chunks

  {
    ColumnarWriter writer(path("single.fac"), 256);
    for (const Ticket& t : db.tickets()) writer.add_ticket(t);
    writer.finish();
  }
  const std::string reference = read_file(dir_ / "single.fac");
  ASSERT_FALSE(reference.empty());

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    const std::string name = "batch" + std::to_string(threads) + ".fac";
    ColumnarWriter writer(path(name), 256);
    writer.add_tickets(db.tickets());
    writer.finish();
    EXPECT_EQ(read_file(dir_ / name), reference)
        << "batch commit bytes diverge at " << threads << " threads";
  }
  ThreadPool::set_default_thread_count(0);
}

TEST_F(ColumnarIoTest, StreamedFileMatchesInMemorySimulation) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  {
    ColumnarTraceWriter writer(path("stream.fac"));
    sim::simulate_to(config, writer);
  }
  expect_databases_equal(sim::simulate(config),
                         load_columnar(path("stream.fac")));
}

// A bad ticket anywhere in a batch must be rejected before the writer
// consumes an id or counts a ticket the sink never receives.
TEST_F(ColumnarIoTest, InvalidTicketInABatchLeavesTalliesUnchanged) {
  TraceDatabase db;
  DatabaseTraceWriter writer(db);
  const auto make_ticket = [](Subsystem sys) {
    Ticket t;
    t.server = ServerId{0};
    t.subsystem = sys;
    return t;
  };
  std::vector<Ticket> good = {make_ticket(0), make_ticket(2), make_ticket(2)};
  writer.add_tickets(good);
  const auto tallies = [&writer] {
    std::vector<std::size_t> out;
    for (Subsystem sys = 0; sys < kSubsystemCount; ++sys) {
      out.push_back(writer.ticket_count(sys));
    }
    return out;
  };
  const std::vector<std::size_t> before = tallies();

  std::vector<Ticket> bad = {make_ticket(1), make_ticket(kSubsystemCount),
                             make_ticket(3)};
  EXPECT_THROW(writer.add_tickets(bad), Error);
  EXPECT_THROW(writer.add_ticket(make_ticket(kSubsystemCount)), Error);
  EXPECT_EQ(writer.ticket_count(), 3u);
  EXPECT_EQ(tallies(), before);
  EXPECT_EQ(db.tickets().size(), 3u);

  // The next valid ticket gets the next id the sink expects.
  EXPECT_EQ(writer.add_ticket(make_ticket(4)), TicketId{3});
  EXPECT_EQ(writer.ticket_count(4), 1u);
}

// ---- dictionary encoding (chunk.h) ----

// The kStringDict block of `column` in an encoded chunk, read back as its
// four parts.
struct DictBlock {
  std::uint32_t dict_count = 0;
  std::vector<std::uint32_t> offsets;
  std::string blob;
  std::vector<std::uint32_t> indices;
};

DictBlock read_dict_block(const std::vector<std::byte>& out,
                          const columnar::ChunkInfo& info,
                          std::size_t column) {
  const columnar::ColumnBlockInfo& block = info.columns[column];
  const std::byte* p = out.data() + block.offset;
  DictBlock d;
  std::memcpy(&d.dict_count, p, 4);
  d.offsets.resize(d.dict_count + 1);
  std::memcpy(d.offsets.data(), p + 4, d.offsets.size() * 4);
  const std::size_t blob_start = 4 + d.offsets.size() * 4;
  d.blob.assign(reinterpret_cast<const char*>(p + blob_start),
                d.offsets.back());
  const std::size_t indices_start = (blob_start + d.blob.size() + 3) / 4 * 4;
  EXPECT_EQ(block.size, indices_start + info.rows * 4ull);
  d.indices.resize(info.rows);
  std::memcpy(d.indices.data(), p + indices_start, d.indices.size() * 4);
  EXPECT_EQ(block.extra, d.dict_count);
  return d;
}

// One ticket chunk whose description and resolution columns hold the given
// strings (all other columns zero).
std::vector<std::byte> encode_ticket_text(
    const std::vector<std::string>& descriptions,
    const std::vector<std::string>& resolutions,
    columnar::ChunkInfo& info) {
  using namespace columnar::col;
  columnar::ChunkBuilder builder(columnar::Table::kTickets);
  for (std::size_t r = 0; r < descriptions.size(); ++r) {
    for (const std::size_t c :
         {kTicketIncident, kTicketServer, kTicketSubsystem, kTicketIsCrash,
          kTicketTrueClass, kTicketOpened, kTicketClosed}) {
      builder.add_int(c, 0);
    }
    builder.add_string(kTicketDescription, descriptions[r]);
    builder.add_string(kTicketResolution, resolutions[r]);
    builder.next_row();
  }
  std::vector<std::byte> out;
  info = builder.encode(out);
  return out;
}

TEST(ChunkDictionary, EncodesEmptyPrefixAndDuplicateStringsExactly) {
  using columnar::col::kTicketDescription;
  using columnar::col::kTicketResolution;
  const std::vector<std::string> descriptions = {
      "ab", "", "a", "abc", "ab", "", "a", "ab", "abc", "ab", "", "ab"};
  const std::vector<std::string> resolutions(descriptions.size(), "same");
  columnar::ChunkInfo info;
  const std::vector<std::byte> out =
      encode_ticket_text(descriptions, resolutions, info);

  // Slots follow first appearance; each distinct string is stored once.
  const DictBlock d = read_dict_block(out, info, kTicketDescription);
  EXPECT_EQ(d.dict_count, 4u);
  EXPECT_EQ(d.offsets, (std::vector<std::uint32_t>{0, 2, 2, 3, 6}));
  EXPECT_EQ(d.blob, "abaabc");
  EXPECT_EQ(d.indices, (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 0,
                                                   3, 0, 1, 0}));

  const DictBlock r = read_dict_block(out, info, kTicketResolution);
  EXPECT_EQ(r.dict_count, 1u);
  EXPECT_EQ(r.offsets, (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(r.blob, "same");
  EXPECT_EQ(r.indices, std::vector<std::uint32_t>(descriptions.size(), 0));

  const columnar::ChunkView view(columnar::Table::kTickets, info, out.data());
  for (std::uint32_t row = 0; row < info.rows; ++row) {
    EXPECT_EQ(view.column(kTicketDescription).string_at(row),
              descriptions[row]);
  }
}

// Enough distinct values that the dictionary index grows several times;
// every string must still map to its first slot.
TEST(ChunkDictionary, ManyDistinctValuesKeepFirstAppearanceSlots) {
  using columnar::col::kTicketDescription;
  constexpr std::size_t kDistinct = 9000;
  constexpr std::size_t kRows = 20000;
  std::vector<std::string> descriptions;
  Rng rng(5);
  std::size_t fresh = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    // Every third row repeats an earlier value, the rest are new until
    // kDistinct values exist; after that everything repeats. "value 1" is a
    // prefix of "value 12", so prefixes are covered too.
    const bool repeat = fresh > 0 && (r % 3 == 2 || fresh == kDistinct);
    const std::size_t v =
        repeat ? static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(fresh) - 1))
               : fresh++;
    descriptions.push_back("value " + std::to_string(v));
  }
  const std::vector<std::string> resolutions(kRows, "");
  columnar::ChunkInfo info;
  const std::vector<std::byte> out =
      encode_ticket_text(descriptions, resolutions, info);

  // Oracle: first-appearance slots from a plain map.
  std::map<std::string, std::uint32_t> slot_of;
  std::vector<std::string> slots;
  std::vector<std::uint32_t> indices;
  for (const std::string& s : descriptions) {
    const auto [it, inserted] =
        slot_of.emplace(s, static_cast<std::uint32_t>(slots.size()));
    if (inserted) slots.push_back(s);
    indices.push_back(it->second);
  }
  ASSERT_GT(slots.size(), 4096u);

  const DictBlock d = read_dict_block(out, info, kTicketDescription);
  ASSERT_EQ(d.dict_count, slots.size());
  std::string blob;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    ASSERT_EQ(d.offsets[k], blob.size()) << "slot " << k;
    blob += slots[k];
  }
  EXPECT_EQ(d.offsets.back(), blob.size());
  EXPECT_EQ(d.blob, blob);
  EXPECT_EQ(d.indices, indices);
}

// ---- footer statistics ----

// Every integer-like column of every ticket chunk carries the min and max
// of its decoded values (present values only for optional columns) in the
// footer; text and floating-point columns carry none.
TEST_F(ColumnarIoTest, FooterMinMaxMatchesDecodedTicketColumns) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 256);
  ChunkReader reader(path("trace.fac"));
  const std::size_t chunks = reader.chunk_count(columnar::Table::kTickets);
  ASSERT_GT(chunks, 1u);
  for (std::size_t c = 0; c < chunks; ++c) {
    const columnar::ChunkInfo& info =
        reader.chunk_info(columnar::Table::kTickets, c);
    const columnar::ChunkView chunk =
        reader.chunk(columnar::Table::kTickets, c);
    ASSERT_EQ(info.columns.size(), chunk.column_count());
    EXPECT_TRUE(info.columns[columnar::col::kTicketOpened].stats.has_minmax);
    for (std::size_t k = 0; k < chunk.column_count(); ++k) {
      const columnar::ColumnView& column = chunk.column(k);
      const columnar::ColumnStats& stats = info.columns[k].stats;
      const columnar::Encoding e = column.encoding();
      const bool int_like = e == columnar::Encoding::kInt64 ||
                            e == columnar::Encoding::kInt32 ||
                            e == columnar::Encoding::kUInt8 ||
                            e == columnar::Encoding::kOptInt32;
      columnar::ColumnStats decoded;
      for (std::uint32_t r = 0; int_like && r < column.rows(); ++r) {
        if (!column.present_at(r)) continue;
        const std::int64_t v = column.int_at(r);
        decoded.min = decoded.has_minmax ? std::min(decoded.min, v) : v;
        decoded.max = decoded.has_minmax ? std::max(decoded.max, v) : v;
        decoded.has_minmax = true;
      }
      EXPECT_EQ(stats.has_minmax, decoded.has_minmax)
          << "chunk " << c << " column " << k;
      EXPECT_EQ(stats.min, decoded.min) << "chunk " << c << " column " << k;
      EXPECT_EQ(stats.max, decoded.max) << "chunk " << c << " column " << k;
    }
  }
}

// ---- out-of-core aggregation (analysis/out_of_core.h) ----

TEST_F(ColumnarIoTest, OutOfCoreSummaryMatchesInMemory) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), 512);

  const analysis::OutOfCoreSummary streamed =
      analysis::summarize_columnar(path("trace.fac"));
  const analysis::OutOfCoreSummary in_memory =
      analysis::summarize_database(db);
  EXPECT_EQ(streamed, in_memory);

  // Buffered reads must agree with the mmap path too.
  EXPECT_EQ(analysis::summarize_columnar(path("trace.fac"), false), in_memory);
}

// Resident file-backed memory of this process in bytes: RssFile, plus
// RssShmem, where a mapped file on tmpfs is counted.
std::int64_t resident_file_bytes() {
  std::ifstream status("/proc/self/status");
  std::int64_t total = 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssFile:", 0) == 0 || line.rfind("RssShmem:", 0) == 0) {
      total += std::stoll(line.substr(line.find(':') + 1)) * 1024;
    }
  }
  return total;
}

// Streaming a mapped table must not leave its chunks resident: the checksum
// pass touches every byte of a chunk, and for_each_chunk gives the pages
// back once the callback returns. So the process's file-backed RSS grows by
// well under the table's bytes; without the release it grows by about all
// of them.
TEST_F(ColumnarIoTest, ForEachChunkReleasesMappedChunks) {
  {
    ColumnarTraceWriter writer(path("big.fac"), 16384);
    sim::simulate_to(sim::SimulationConfig::paper_defaults().scaled(0.7),
                     writer);
  }
  ASSERT_GE(fs::file_size(dir_ / "big.fac"), std::uintmax_t{16} << 20);
  const ChunkReader reader(path("big.fac"));
  ASSERT_TRUE(reader.mmapped());
  const columnar::Table table = columnar::Table::kTickets;
  ASSERT_GE(reader.chunk_count(table), 4u);
  std::int64_t table_bytes = 0;
  for (std::size_t i = 0; i < reader.chunk_count(table); ++i) {
    table_bytes += static_cast<std::int64_t>(reader.chunk_info(table, i).size);
  }

  std::uint64_t rows = 0;
  const std::int64_t before = resident_file_bytes();
  analysis::for_each_chunk(reader, table, [&](const columnar::ChunkView& v) {
    rows += v.rows();
  });
  const std::int64_t grew = resident_file_bytes() - before;
  EXPECT_EQ(rows, reader.row_count(table));
  EXPECT_LT(grew, table_bytes / 2)
      << "resident file bytes grew by " << grew << " reading a "
      << table_bytes << "-byte table";
}

// load_columnar maps the whole file but gives each load wave's pages back
// once the wave is decoded, so at no point during the load is more than
// about one wave of the file resident. The peak is sampled from a second
// thread, because the mapping is gone when the load returns; without the
// release the file-backed RSS climbs to about the whole file.
TEST_F(ColumnarIoTest, LoadColumnarReleasesMappedWaves) {
  {
    ColumnarTraceWriter writer(path("waves.fac"), 4096);
    sim::simulate_to(sim::SimulationConfig::paper_defaults().scaled(0.7),
                     writer);
  }
  const auto file_bytes =
      static_cast<std::int64_t>(fs::file_size(dir_ / "waves.fac"));
  ASSERT_GE(file_bytes, std::int64_t{16} << 20);
  // The loader's wave: 8 consecutive chunks of one table.
  constexpr std::size_t kWaveChunks = 8;
  std::int64_t wave_bytes = 0;
  {
    const ChunkReader reader(path("waves.fac"));
    ASSERT_TRUE(reader.mmapped());
    for (const columnar::Table table : columnar::kAllTables) {
      const std::size_t chunks = reader.chunk_count(table);
      for (std::size_t first = 0; first < chunks; first += kWaveChunks) {
        std::int64_t bytes = 0;
        for (std::size_t i = first; i < std::min(chunks, first + kWaveChunks);
             ++i) {
          bytes += static_cast<std::int64_t>(reader.chunk_info(table, i).size);
        }
        wave_bytes = std::max(wave_bytes, bytes);
      }
    }
  }
  ASSERT_LT(wave_bytes * 4, file_bytes);  // the file spans many waves

  const std::int64_t before = resident_file_bytes();
  std::atomic<bool> done{false};
  std::int64_t peak = before;
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak, resident_file_bytes());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const TraceDatabase db = load_columnar(path("waves.fac"));
  done.store(true);
  sampler.join();
  EXPECT_GT(db.tickets().size(), 0u);
  // One wave plus 1 MiB for pages shared with neighbouring chunks, the
  // footer, and code the load touches for the first time.
  EXPECT_LT(peak - before, wave_bytes + (std::int64_t{1} << 20))
      << "resident file bytes peaked " << (peak - before)
      << " above the start loading a " << file_bytes
      << "-byte file whose largest wave is " << wave_bytes << " bytes";
}

// A background ticket may name no server (finalize allows it, and sanitize
// produces such tickets). The lenient loader must keep it as the strict one
// does instead of counting it as a dangling row.
TEST_F(ColumnarIoTest, LenientLoadKeepsServerlessBackgroundTicket) {
  fa::testing::TinyDbBuilder b;
  const ServerId pm = b.add_pm(0);
  b.add_crash(pm, 3.0, 2.0);
  b.add_background(pm, 4.0);
  Ticket serverless;
  serverless.is_crash = false;
  serverless.opened = ticket_window().begin + from_days(5.0);
  serverless.closed = serverless.opened + from_hours(1.0);
  serverless.description = "disk space warning";
  serverless.resolution = "closed after review";
  b.raw().add_ticket(serverless);
  save_columnar(b.finish(), path("serverless.fac"));

  const TraceDatabase strict = load_columnar(path("serverless.fac"));
  DegradedReadReport report;
  const TraceDatabase lenient =
      load_columnar_lenient(path("serverless.fac"), report);
  EXPECT_EQ(report.rows_dropped_dangling, 0u);
  EXPECT_FALSE(report.degraded()) << report.to_string();
  ASSERT_EQ(lenient.tickets().size(), 3u);
  EXPECT_FALSE(lenient.tickets().back().server.valid());
  EXPECT_EQ(fingerprint(lenient), fingerprint(strict));
}

// ---- sanitize degradation (satellite: quarantine stability) ----

// A columnar round trip must not change what the sanitizer quarantines:
// corrupting the original export and the round-tripped export with the same
// seed yields identical defect reports and quarantined row sets.
TEST_F(ColumnarIoTest, SanitizeQuarantinesSameRowsAfterColumnarRoundTrip) {
  save_database(fa::testing::small_simulated_db(), path("orig"));
  save_columnar(load_database(path("orig")), path("trace.fac"));
  save_database(load_columnar(path("trace.fac")), path("roundtrip"));

  const auto mix = fa::inject::DefectMix::uniform(0.05);
  fa::inject::corrupt_database(path("orig"), path("orig_dirty"), 11, mix);
  fa::inject::corrupt_database(path("roundtrip"), path("rt_dirty"), 11, mix);

  const SanitizedDatabase a = sanitize_database(path("orig_dirty"));
  const SanitizedDatabase b = sanitize_database(path("rt_dirty"));

  ASSERT_GT(a.report.total_defects(), 0u);
  EXPECT_EQ(a.report.counts_csv(), b.report.counts_csv());
  EXPECT_EQ(a.report.defects_csv(), b.report.defects_csv());
  for (const char* file : {"tickets.csv", "weekly_usage.csv"}) {
    EXPECT_EQ(a.report.quarantined_rows(file), b.report.quarantined_rows(file))
        << file;
  }
  expect_databases_equal(a.db, b.db);
}

}  // namespace
}  // namespace fa::trace
