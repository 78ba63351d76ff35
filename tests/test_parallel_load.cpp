// The chunk-parallel .fac load: the same database at any thread count, on the
// mmap and buffered paths, and on a damaged file the same error — the one of
// the lowest-index bad chunk — however the decode work was scheduled.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/columnar_io.h"
#include "src/trace/fingerprint.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

namespace fs = std::filesystem;
using columnar::Table;

constexpr std::uint32_t kChunkRows = 512;  // many chunks, several load waves

class ParallelLoad : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fa_parallel_load_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    ThreadPool::set_default_thread_count(0);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Writes the small simulated trace's servers and tickets, letting
  // `mutate` edit ticket i before it is written.
  std::string write_tickets(
      const std::string& name,
      const std::function<void(std::size_t, Ticket&)>& mutate) const {
    const TraceDatabase& db = fa::testing::small_simulated_db();
    ColumnarWriter writer(path(name), kChunkRows);
    writer.set_windows(db.window(), db.monitoring(), db.onoff_tracking());
    std::int32_t next_incident = 0;
    for (const ServerRecord& s : db.servers()) writer.add_server(s);
    for (std::size_t i = 0; i < db.tickets().size(); ++i) {
      Ticket t = db.tickets()[i];
      mutate(i, t);
      next_incident = std::max(next_incident, t.incident.value + 1);
      writer.add_ticket(t);
    }
    writer.set_next_incident(next_incident);
    writer.finish();
    return path(name);
  }

  // Flips one byte inside each listed ticket chunk's payload.
  static void corrupt_ticket_chunks(const std::string& file,
                                    const std::vector<std::size_t>& chunks) {
    std::vector<std::uint64_t> offsets;
    {
      ChunkReader reader(file);
      for (std::size_t c : chunks) {
        const columnar::ChunkInfo& info = reader.chunk_info(Table::kTickets, c);
        offsets.push_back(info.offset + info.size / 2);
      }
    }
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    for (std::uint64_t offset : offsets) {
      f.seekg(static_cast<std::streamoff>(offset));
      const char byte = static_cast<char>(f.get() ^ 0x5a);
      f.seekp(static_cast<std::streamoff>(offset));
      f.put(byte);
    }
  }

  fs::path dir_;
};

// The failure a strict load of `file` throws, at `threads` threads.
struct LoadFailure {
  bool chunk_error = false;
  std::size_t index = 0;
  Table table = Table::kServers;
  std::string what;
};

LoadFailure strict_load_failure(const std::string& file, std::size_t threads,
                                bool use_mmap) {
  ThreadPool::set_default_thread_count(threads);
  try {
    load_columnar(file, use_mmap);
  } catch (const ChunkError& e) {
    return {true, e.index(), e.table(), e.what()};
  } catch (const Error& e) {
    return {false, 0, Table::kServers, e.what()};
  }
  ADD_FAILURE() << "load_columnar accepted a damaged file";
  return {};
}

TEST_F(ParallelLoad, FullTraceDigestIsThreadCountInvariant) {
  const TraceDatabase& db = fa::testing::small_simulated_db();
  save_columnar(db, path("trace.fac"), kChunkRows);
  {
    const ChunkReader reader(path("trace.fac"));
    ASSERT_GT(reader.chunk_count(Table::kTickets), 16u);
    ASSERT_GT(reader.chunk_count(Table::kWeeklyUsage), 16u);
  }
  const std::uint64_t expected = fingerprint(db);
  for (const bool use_mmap : {true, false}) {
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool::set_default_thread_count(threads);
      EXPECT_EQ(fingerprint(load_columnar(path("trace.fac"), use_mmap)),
                expected)
          << threads << " threads, mmap " << use_mmap;
    }
  }
}

TEST_F(ParallelLoad, TwoCorruptTicketChunksReportTheLowerOne) {
  // Chunks in the same load wave, then in different waves.
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {{2, 5},
                                                                  {3, 12}};
  for (const auto& [low, high] : cases) {
    const std::string file = write_tickets("bad.fac", [](auto, auto&) {});
    corrupt_ticket_chunks(file, {high, low});
    for (const bool use_mmap : {true, false}) {
      for (const std::size_t threads : {1u, 8u}) {
        const LoadFailure failure =
            strict_load_failure(file, threads, use_mmap);
        EXPECT_TRUE(failure.chunk_error) << failure.what;
        EXPECT_EQ(failure.table, Table::kTickets);
        EXPECT_EQ(failure.index, low)
            << threads << " threads, mmap " << use_mmap << ": "
            << failure.what;
      }
    }
  }
}

TEST_F(ParallelLoad, RowDecodeErrorAndCorruptChunkReportTheLowerOne) {
  const auto bad_subsystem_in = [](std::size_t chunk) {
    return [chunk](std::size_t i, Ticket& t) {
      if (i == chunk * kChunkRows + 7) t.subsystem = 9;
    };
  };
  // An out-of-range value in chunk 1, a checksum failure in chunk 4.
  const std::string first =
      write_tickets("decode_first.fac", bad_subsystem_in(1));
  corrupt_ticket_chunks(first, {4});
  // The checksum failure in chunk 1, the bad value in chunk 4.
  const std::string second =
      write_tickets("corrupt_first.fac", bad_subsystem_in(4));
  corrupt_ticket_chunks(second, {1});
  for (const std::size_t threads : {1u, 8u}) {
    const LoadFailure decode = strict_load_failure(first, threads, true);
    EXPECT_FALSE(decode.chunk_error) << decode.what;
    EXPECT_EQ(decode.what, "columnar: invalid subsystem 9");
    const LoadFailure corrupt = strict_load_failure(second, threads, true);
    EXPECT_TRUE(corrupt.chunk_error) << corrupt.what;
    EXPECT_EQ(corrupt.index, 1u) << corrupt.what;
  }
}

TEST_F(ParallelLoad, LenientLoadIsThreadCountInvariant) {
  const std::string file = write_tickets("bad.fac", [](auto, auto&) {});
  corrupt_ticket_chunks(file, {2, 11});
  std::vector<std::uint64_t> digests;
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool::set_default_thread_count(threads);
    DegradedReadReport report;
    digests.push_back(fingerprint(load_columnar_lenient(file, report)));
    const auto t = static_cast<std::size_t>(Table::kTickets);
    EXPECT_EQ(report.chunks_skipped[t], 2u);
    EXPECT_EQ(report.rows_skipped[t], 2u * kChunkRows);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace fa::trace
