#include "src/trace/columnar_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/trace/columnar_format.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::trace {
namespace {

using columnar::ChunkInfo;
using columnar::ChunkView;
using columnar::ColumnBlockInfo;
using columnar::Encoding;
using columnar::Table;
using columnar::fnv1a;
using columnar::kTableCount;
using columnar::table_schema;

using format::kFrameBytes;
using format::kHeaderBytes;
using format::kTailBytes;

obs::Counter& chunks_written_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_written");
  return c;
}
obs::Counter& rows_written_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.rows_written");
  return c;
}
obs::Counter& chunks_read_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_read");
  return c;
}
obs::Counter& checkpoints_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.checkpoints");
  return c;
}
obs::Counter& chunks_skipped_counter() {
  static obs::Counter& c = obs::counter("fa.trace.columnar.chunks_skipped");
  return c;
}

FileReport build_report(
    const std::array<std::vector<ChunkInfo>, kTableCount>& directory,
    const std::array<std::uint64_t, kTableCount>& row_counts,
    std::uint64_t footer_bytes) {
  FileReport report;
  report.footer_bytes = footer_bytes;
  for (int t = 0; t < kTableCount; ++t) {
    const Table table = columnar::kAllTables[t];
    report.rows[t] = row_counts[t];
    report.chunks[t] = directory[t].size();
    for (const ChunkInfo& chunk : directory[t]) {
      report.data_bytes += chunk.size;
    }
    const auto& schema = table_schema(table);
    for (std::size_t ci = 0; ci < schema.size(); ++ci) {
      ColumnReport col;
      col.table = table;
      col.name = std::string(schema[ci].name);
      col.encoding = schema[ci].encoding;
      for (const ChunkInfo& chunk : directory[t]) {
        const ColumnBlockInfo& block = chunk.columns[ci];
        col.bytes += block.size;
        if (schema[ci].encoding == Encoding::kStringDict) {
          col.dict_entries += block.extra;
          col.max_dict_entries =
              std::max<std::uint64_t>(col.max_dict_entries, block.extra);
        }
      }
      report.columns.push_back(std::move(col));
    }
  }
  return report;
}

format::FooterImage make_footer_image(
    const ObservationWindow& window, const ObservationWindow& monitoring,
    const ObservationWindow& onoff, std::int32_t next_incident,
    std::uint32_t chunk_rows,
    const std::array<std::uint64_t, kTableCount>& row_counts,
    const std::array<std::vector<ChunkInfo>, kTableCount>& directory) {
  format::FooterImage image;
  image.window = window;
  image.monitoring = monitoring;
  image.onoff = onoff;
  image.next_incident = next_incident;
  image.chunk_rows = chunk_rows;
  image.row_counts = row_counts;
  image.directory = directory;
  return image;
}

}  // namespace

bool is_columnar_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == 4 &&
         std::memcmp(magic, kColumnarMagic.data(), 4) == 0;
}

// ---- located read errors / degraded reads ----

const char* read_defect_name(ReadDefect defect) {
  switch (defect) {
    case ReadDefect::kChecksumMismatch:
      return "checksum_mismatch";
    case ReadDefect::kTruncated:
      return "truncated";
    case ReadDefect::kDecodeError:
      return "decode_error";
    case ReadDefect::kIoError:
      return "io_error";
  }
  return "unknown";
}

ChunkError::ChunkError(const std::string& path, columnar::Table table,
                       std::size_t index, std::uint64_t offset,
                       std::uint64_t size, ReadDefect defect,
                       const std::string& detail)
    : Error("columnar: " + path + ": " +
            std::string(columnar::table_name(table)) + " chunk " +
            std::to_string(index) + " at offset " + std::to_string(offset) +
            " (" + std::to_string(size) + " B): " + detail),
      table_(table),
      index_(index),
      offset_(offset),
      defect_(defect) {}

void DegradedReadReport::record(const ChunkError& error, std::uint32_t rows) {
  const auto t = static_cast<std::size_t>(error.table());
  ++chunks_skipped[t];
  rows_skipped[t] += rows;
  ++by_defect[static_cast<std::size_t>(error.defect())];
  chunks_skipped_counter().add(1);
}

bool DegradedReadReport::degraded() const {
  for (int t = 0; t < kTableCount; ++t) {
    if (chunks_skipped[t] != 0) return true;
  }
  return rows_dropped_dangling != 0;
}

std::uint64_t DegradedReadReport::total_rows_skipped() const {
  std::uint64_t total = 0;
  for (int t = 0; t < kTableCount; ++t) total += rows_skipped[t];
  return total;
}

std::string DegradedReadReport::to_string() const {
  if (!degraded()) return "degraded read: clean (no chunks skipped)\n";
  std::string out = "degraded read: PARTIAL DATA\n";
  for (int t = 0; t < kTableCount; ++t) {
    if (chunks_skipped[t] == 0) continue;
    out += "  " + std::string(columnar::table_name(columnar::kAllTables[t])) +
           ": skipped " + std::to_string(chunks_skipped[t]) + " chunk(s), " +
           std::to_string(rows_skipped[t]) + " row(s)\n";
  }
  for (int d = 0; d < kReadDefectCount; ++d) {
    if (by_defect[d] == 0) continue;
    out += "  defect " + std::string(read_defect_name(
                             static_cast<ReadDefect>(d))) +
           ": " + std::to_string(by_defect[d]) + " chunk(s)\n";
  }
  if (rows_dropped_dangling != 0) {
    out += "  dangling rows dropped: " +
           std::to_string(rows_dropped_dangling) + "\n";
  }
  return out;
}

// ---- ColumnarWriter ----

ColumnarWriter::ColumnarWriter(const std::string& path,
                               std::uint32_t chunk_rows)
    : ColumnarWriter(path, [&] {
        WriterOptions options;
        options.chunk_rows = chunk_rows;
        return options;
      }()) {}

ColumnarWriter::ColumnarWriter(const std::string& path,
                               const WriterOptions& options)
    : ColumnarWriter(std::make_unique<io::PosixWritableFile>(path), options) {}

ColumnarWriter::ColumnarWriter(std::unique_ptr<io::WritableFile> file,
                               const WriterOptions& options)
    : path_(file->path()),
      out_(std::move(file), options.retry, options.clock),
      chunk_rows_(options.chunk_rows),
      checkpoint_every_chunks_(options.checkpoint_every_chunks),
      window_(ticket_window()),
      monitoring_(monitoring_window()),
      onoff_(onoff_window()) {
  require(chunk_rows_ > 0, "columnar: chunk_rows must be positive");
  builders_.reserve(kTableCount);
  for (Table table : columnar::kAllTables) builders_.emplace_back(table);
  std::array<std::byte, kHeaderBytes> header;
  std::memcpy(header.data(), kColumnarMagic.data(), 4);
  const std::uint32_t version = kColumnarVersion;
  std::memcpy(header.data() + 4, &version, sizeof(version));
  out_.write(header.data(), header.size());
}

ColumnarWriter::~ColumnarWriter() = default;

void ColumnarWriter::set_windows(ObservationWindow ticket,
                                 ObservationWindow monitoring,
                                 ObservationWindow onoff_tracking) {
  require(!finished_, "columnar: set_windows after finish");
  window_ = ticket;
  monitoring_ = monitoring;
  onoff_ = onoff_tracking;
}

void ColumnarWriter::append_rows_metric(Table table) {
  const auto t = static_cast<std::size_t>(table);
  ++row_counts_[t];
  rows_written_counter().add(1);
  if (builders_[t].rows() >= chunk_rows_) flush_chunk(table);
}

void ColumnarWriter::add_server(const ServerRecord& record) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kServers)], record);
  append_rows_metric(Table::kServers);
}

void ColumnarWriter::add_ticket(const Ticket& ticket) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kTickets)], ticket);
  append_rows_metric(Table::kTickets);
}

void ColumnarWriter::add_tickets(std::span<const Ticket> tickets) {
  require(!finished_, "columnar: write after finish");
  using namespace columnar::col;
  const auto t = static_cast<std::size_t>(Table::kTickets);
  columnar::ChunkBuilder& b = builders_[t];
  std::size_t done = 0;
  while (done < tickets.size()) {
    const std::size_t room = chunk_rows_ - b.rows();
    const std::size_t n = std::min(room, tickets.size() - done);
    const std::span<const Ticket> batch = tickets.subspan(done, n);
    // One task per ticket column. Each fills only its own column's state, so
    // scheduling order cannot affect the encoded bytes; dictionary slots
    // still follow row order within each text column. The two text columns
    // cost the most, so they are handed out first.
    static constexpr std::array<std::size_t, 9> kFillOrder = {
        kTicketDescription, kTicketResolution, kTicketIncident,
        kTicketServer,      kTicketSubsystem,  kTicketIsCrash,
        kTicketTrueClass,   kTicketOpened,     kTicketClosed};
    parallel_for(kFillOrder.size(), [&](std::size_t task) {
      switch (kFillOrder[task]) {
        case kTicketIncident:
          b.fill_ints(kTicketIncident, n,
                      [&](std::size_t i) { return batch[i].incident.value; });
          break;
        case kTicketServer:
          b.fill_ints(kTicketServer, n,
                      [&](std::size_t i) { return batch[i].server.value; });
          break;
        case kTicketSubsystem:
          b.fill_ints(kTicketSubsystem, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].subsystem);
          });
          break;
        case kTicketIsCrash:
          b.fill_ints(kTicketIsCrash, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].is_crash ? 1 : 0);
          });
          break;
        case kTicketTrueClass:
          b.fill_ints(kTicketTrueClass, n, [&](std::size_t i) {
            return static_cast<std::int64_t>(batch[i].true_class);
          });
          break;
        case kTicketOpened:
          b.fill_ints(kTicketOpened, n,
                      [&](std::size_t i) { return batch[i].opened; });
          break;
        case kTicketClosed:
          b.fill_ints(kTicketClosed, n,
                      [&](std::size_t i) { return batch[i].closed; });
          break;
        case kTicketDescription:
          b.fill_strings(kTicketDescription, n, [&](std::size_t i) {
            return std::string_view(batch[i].description);
          });
          break;
        case kTicketResolution:
          b.fill_strings(kTicketResolution, n, [&](std::size_t i) {
            return std::string_view(batch[i].resolution);
          });
          break;
      }
    });
    b.advance_rows(n);
    row_counts_[t] += n;
    rows_written_counter().add(n);
    done += n;
    if (b.rows() >= chunk_rows_) flush_chunk(Table::kTickets);
  }
}

void ColumnarWriter::add_weekly_usage(const WeeklyUsage& usage) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kWeeklyUsage)],
                usage);
  append_rows_metric(Table::kWeeklyUsage);
}

void ColumnarWriter::add_power_event(const PowerEvent& event) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kPowerEvents)],
                event);
  append_rows_metric(Table::kPowerEvents);
}

void ColumnarWriter::add_monthly_snapshot(const MonthlySnapshot& snapshot) {
  require(!finished_, "columnar: write after finish");
  append_record(builders_[static_cast<std::size_t>(Table::kSnapshots)],
                snapshot);
  append_rows_metric(Table::kSnapshots);
}

void ColumnarWriter::flush_chunk(Table table) {
  const auto t = static_cast<std::size_t>(table);
  if (builders_[t].rows() == 0) return;
  // The chunk payload is encoded right after space reserved for its frame
  // header, so header + payload hit the file in one write.
  scratch_.assign(kFrameBytes, std::byte{0});
  ChunkInfo info = builders_[t].encode(scratch_);
  format::FrameHeader frame;
  frame.kind = format::FrameKind::kChunk;
  frame.table = static_cast<std::uint8_t>(table);
  frame.rows = info.rows;
  frame.payload_size = info.size;
  frame.checksum = info.checksum;
  format::write_frame_header(frame, scratch_.data());
  // encode() offsets are relative to the frame start (payload at
  // kFrameBytes); rebase onto the file position of this frame.
  const std::uint64_t base = out_.offset();
  info.offset += base;
  for (ColumnBlockInfo& block : info.columns) block.offset += base;
  out_.write(scratch_.data(), scratch_.size());
  directory_[t].push_back(std::move(info));
  chunks_written_counter().add(1);
  if (checkpoint_every_chunks_ > 0 &&
      ++chunks_since_checkpoint_ >= checkpoint_every_chunks_) {
    write_checkpoint();
    chunks_since_checkpoint_ = 0;
  }
}

void ColumnarWriter::write_checkpoint() {
  // A checkpoint describes durable state only: rows still buffered in the
  // builders are not on disk yet, so the snapshot counts flushed chunks,
  // not rows added (the footer parser checks directory vs row counts).
  std::array<std::uint64_t, kTableCount> flushed_rows{};
  for (std::size_t t = 0; t < kTableCount; ++t) {
    for (const ChunkInfo& info : directory_[t]) flushed_rows[t] += info.rows;
  }
  const std::vector<std::byte> payload = format::serialize_footer_payload(
      make_footer_image(window_, monitoring_, onoff_, next_incident_,
                        chunk_rows_, flushed_rows, directory_));
  scratch_.assign(kFrameBytes + format::padded(payload.size(), 8),
                  std::byte{0});
  format::FrameHeader frame;
  frame.kind = format::FrameKind::kCheckpoint;
  frame.table = format::kNoTable;
  frame.rows = 0;
  frame.payload_size = payload.size();
  frame.checksum = fnv1a(payload.data(), payload.size());
  format::write_frame_header(frame, scratch_.data());
  std::memcpy(scratch_.data() + kFrameBytes, payload.data(), payload.size());
  out_.write(scratch_.data(), scratch_.size());
  checkpoints_counter().add(1);
}

void ColumnarWriter::finish() {
  require(!finished_, "columnar: finish called twice");
  for (Table table : columnar::kAllTables) flush_chunk(table);
  write_footer();
  out_.flush();
  out_.close();
  finished_ = true;
}

void ColumnarWriter::write_footer() {
  std::vector<std::byte> bytes = format::serialize_footer_payload(
      make_footer_image(window_, monitoring_, onoff_, next_incident_,
                        chunk_rows_, row_counts_, directory_));
  const std::uint64_t footer_size = bytes.size();
  const std::uint64_t footer_checksum = fnv1a(bytes.data(), bytes.size());
  const auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  put(&footer_size, sizeof(footer_size));
  put(&footer_checksum, sizeof(footer_checksum));
  put(kColumnarMagic.data(), kColumnarMagic.size());
  const std::uint32_t version = kColumnarVersion;
  put(&version, sizeof(version));
  out_.write(bytes.data(), bytes.size());
  report_ = build_report(directory_, row_counts_, footer_size + kTailBytes);
}

const FileReport& ColumnarWriter::report() const {
  require(finished_, "columnar: report only available after finish");
  return report_;
}

// ---- ChunkReader ----

ChunkReader::ChunkReader(const std::string& path, bool use_mmap)
    : path_(path) {
  if (use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
        void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
          mapping_ = static_cast<const std::byte*>(map);
          mapping_size_ = static_cast<std::uint64_t>(st.st_size);
          file_size_ = mapping_size_;
        }
      }
      // The mapping outlives the descriptor.
      ::close(fd);
    }
  }
  if (mapping_ == nullptr) {
    reader_ = std::make_unique<io::CheckedReader>(
        std::make_unique<io::PosixReadableFile>(path));
    file_size_ = reader_->size();
  }
  try {
    open_footer();
  } catch (...) {
    if (mapping_ != nullptr) {
      ::munmap(const_cast<std::byte*>(mapping_), mapping_size_);
      mapping_ = nullptr;
    }
    throw;
  }
}

ChunkReader::ChunkReader(std::unique_ptr<io::ReadableFile> file,
                         io::RetryPolicy retry, io::Clock* clock)
    : path_(file->path()),
      reader_(std::make_unique<io::CheckedReader>(std::move(file), retry,
                                                  clock)) {
  file_size_ = reader_->size();
  open_footer();
}

void ChunkReader::open_footer() {
  const auto read_at = [&](std::uint64_t offset, void* dest,
                           std::size_t size) {
    if (mapping_ != nullptr) {
      std::memcpy(dest, mapping_ + offset, size);
      return;
    }
    reader_->read_at(offset, dest, size);
  };

  require(file_size_ >= kHeaderBytes + kTailBytes,
          "columnar: " + path_ + " is truncated (no header/tail)");

  char magic[4];
  std::uint32_t version = 0;
  read_at(0, magic, 4);
  require(std::memcmp(magic, kColumnarMagic.data(), 4) == 0,
          "columnar: " + path_ + " is not a columnar trace file "
          "(bad magic)");
  read_at(4, &version, sizeof(version));
  require(version == kColumnarVersion,
          "columnar: " + path_ + " has unsupported format version " +
              std::to_string(version) + " (expected " +
              std::to_string(kColumnarVersion) + ")");

  std::uint64_t footer_size = 0;
  std::uint64_t footer_checksum = 0;
  read_at(file_size_ - kTailBytes, &footer_size, sizeof(footer_size));
  read_at(file_size_ - kTailBytes + 8, &footer_checksum,
          sizeof(footer_checksum));
  read_at(file_size_ - kTailBytes + 16, magic, 4);
  read_at(file_size_ - kTailBytes + 20, &version, sizeof(version));
  require(std::memcmp(magic, kColumnarMagic.data(), 4) == 0 &&
              version == kColumnarVersion,
          "columnar: " + path_ + " has a corrupt or truncated tail");
  require(footer_size <= file_size_ - kHeaderBytes - kTailBytes,
          "columnar: " + path_ + " footer escapes the file (truncated?)");
  const std::uint64_t footer_start = file_size_ - kTailBytes - footer_size;
  footer_bytes_ = footer_size + kTailBytes;

  std::vector<std::byte> footer(footer_size);
  read_at(footer_start, footer.data(), footer.size());
  require(fnv1a(footer.data(), footer.size()) == footer_checksum,
          "columnar: " + path_ + " footer checksum mismatch (corrupt)");

  format::FooterImage image = format::parse_footer_payload(
      footer.data(), footer.size(), footer_start, path_);
  window_ = image.window;
  monitoring_ = image.monitoring;
  onoff_ = image.onoff;
  next_incident_ = image.next_incident;
  chunk_rows_ = image.chunk_rows;
  row_counts_ = image.row_counts;
  directory_ = std::move(image.directory);
}

ChunkReader::~ChunkReader() {
  if (mapping_ != nullptr) {
    ::munmap(const_cast<std::byte*>(mapping_), mapping_size_);
  }
}

std::uint64_t ChunkReader::row_count(Table table) const {
  return row_counts_[static_cast<std::size_t>(table)];
}

std::size_t ChunkReader::chunk_count(Table table) const {
  return directory_[static_cast<std::size_t>(table)].size();
}

const ChunkInfo& ChunkReader::chunk_info(Table table,
                                         std::size_t index) const {
  const auto& chunks = directory_[static_cast<std::size_t>(table)];
  require(index < chunks.size(), "columnar: chunk index out of range");
  return chunks[index];
}

ChunkReader::ChunkBytes ChunkReader::fetch(Table table,
                                          std::size_t index) const {
  const ChunkInfo& info = chunk_info(table, index);
  chunks_read_counter().add(1);
  if (info.offset > file_size_ || info.size > file_size_ - info.offset) {
    throw ChunkError(path_, table, index, info.offset, info.size,
                     ReadDefect::kTruncated,
                     "chunk escapes the file (truncated)");
  }
  ChunkBytes bytes{table, index, nullptr, {}};
  if (mapping_ != nullptr) {
    bytes.base = mapping_ + info.offset;
    return bytes;
  }
  bytes.owned.resize(info.size);
  try {
    reader_->read_at(info.offset, bytes.owned.data(), bytes.owned.size());
  } catch (const io::IoError& e) {
    throw ChunkError(path_, table, index, info.offset, info.size,
                     ReadDefect::kIoError, e.what());
  }
  bytes.base = bytes.owned.data();
  return bytes;
}

ChunkView ChunkReader::verify(ChunkBytes bytes) const {
  const ChunkInfo& info = chunk_info(bytes.table, bytes.index);
  if (fnv1a(bytes.base, info.size) != info.checksum) {
    throw ChunkError(path_, bytes.table, bytes.index, info.offset, info.size,
                     ReadDefect::kChecksumMismatch,
                     "checksum mismatch (corrupt)");
  }
  try {
    return ChunkView(bytes.table, info, bytes.base, std::move(bytes.owned));
  } catch (const Error& e) {
    throw ChunkError(path_, bytes.table, bytes.index, info.offset, info.size,
                     ReadDefect::kDecodeError, e.what());
  }
}

ChunkView ChunkReader::chunk(Table table, std::size_t index) const {
  return verify(fetch(table, index));
}

std::optional<ChunkView> ChunkReader::try_chunk(
    Table table, std::size_t index, DegradedReadReport* report) const {
  try {
    return chunk(table, index);
  } catch (const ChunkError& e) {
    if (report != nullptr) report->record(e, chunk_info(table, index).rows);
    return std::nullopt;
  }
}

void ChunkReader::release(Table table, std::size_t first,
                          std::size_t last) const {
  if (mapping_ == nullptr) return;
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const auto& chunks = directory_[static_cast<std::size_t>(table)];
  for (std::size_t i = first; i < std::min(last, chunks.size()); ++i) {
    const ChunkInfo& info = chunks[i];
    if (info.offset >= mapping_size_) continue;
    // Whole pages inside the chunk only: a page shared with a neighbouring
    // chunk (of this or another table) may still be read.
    const std::uint64_t end =
        info.offset + std::min(info.size, mapping_size_ - info.offset);
    const std::uint64_t begin = (info.offset + page - 1) / page * page;
    const std::uint64_t inner_end = end / page * page;
    if (begin >= inner_end) continue;
    ::madvise(const_cast<std::byte*>(mapping_) + begin, inner_end - begin,
              MADV_DONTNEED);
  }
}

FileReport ChunkReader::report() const {
  return build_report(directory_, row_counts_, footer_bytes_);
}

// ---- record bridge ----

void append_record(columnar::ChunkBuilder& b, const ServerRecord& r) {
  using namespace columnar::col;
  b.add_int(kServerType, static_cast<std::int64_t>(r.type));
  b.add_int(kServerSubsystem, r.subsystem);
  b.add_int(kServerCpuCount, r.cpu_count);
  b.add_double(kServerMemoryGb, r.memory_gb);
  b.add_opt_double(kServerDiskGb, r.disk_gb);
  b.add_opt_int(kServerDiskCount, r.disk_count);
  b.add_int(kServerHostBox, r.host_box.value);
  b.add_int(kServerFirstRecord, r.first_record);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const Ticket& t) {
  using namespace columnar::col;
  b.add_int(kTicketIncident, t.incident.value);
  b.add_int(kTicketServer, t.server.value);
  b.add_int(kTicketSubsystem, t.subsystem);
  b.add_int(kTicketIsCrash, t.is_crash ? 1 : 0);
  b.add_int(kTicketTrueClass, static_cast<std::int64_t>(t.true_class));
  b.add_int(kTicketOpened, t.opened);
  b.add_int(kTicketClosed, t.closed);
  b.add_string(kTicketDescription, t.description);
  b.add_string(kTicketResolution, t.resolution);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const WeeklyUsage& u) {
  using namespace columnar::col;
  b.add_int(kUsageServer, u.server.value);
  b.add_int(kUsageWeek, u.week);
  b.add_double(kUsageCpuUtil, u.cpu_util);
  b.add_double(kUsageMemUtil, u.mem_util);
  b.add_opt_double(kUsageDiskUtil, u.disk_util);
  b.add_opt_double(kUsageNetKbps, u.net_kbps);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const PowerEvent& e) {
  using namespace columnar::col;
  b.add_int(kPowerServer, e.server.value);
  b.add_int(kPowerAt, e.at);
  b.add_int(kPowerOn, e.powered_on ? 1 : 0);
  b.next_row();
}

void append_record(columnar::ChunkBuilder& b, const MonthlySnapshot& s) {
  using namespace columnar::col;
  b.add_int(kSnapServer, s.server.value);
  b.add_int(kSnapMonth, s.month);
  b.add_int(kSnapBox, s.box.value);
  b.add_int(kSnapConsolidation, s.consolidation);
  b.next_row();
}

namespace {

// The enum-like columns are validated row by row; the message is built only
// when a value is out of range.
Subsystem checked_subsystem(std::int64_t value) {
  require(value >= 0 && value < kSubsystemCount, [&] {
    return "columnar: invalid subsystem " + std::to_string(value);
  });
  return static_cast<Subsystem>(value);
}

// Checks that rows [first, first + count) lie inside the chunk.
void require_rows(const ChunkView& view, std::uint32_t first,
                  std::size_t count) {
  require(first <= view.rows() && count <= view.rows() - first,
          "columnar: decoded rows escape the chunk");
}

}  // namespace

void decode_rows(const ChunkView& view, std::uint32_t first,
                 std::int64_t first_row_id, std::span<ServerRecord> out) {
  using namespace columnar::col;
  require_rows(view, first, out.size());
  const auto type = view.column(kServerType).u8_span();
  const auto subsystem = view.column(kServerSubsystem).u8_span();
  const auto cpu_count = view.column(kServerCpuCount).i32_span();
  const auto memory_gb = view.column(kServerMemoryGb).f64_span();
  const columnar::ColumnView& disk_gb = view.column(kServerDiskGb);
  const columnar::ColumnView& disk_count = view.column(kServerDiskCount);
  const auto host_box = view.column(kServerHostBox).i32_span();
  const auto first_record = view.column(kServerFirstRecord).i64_span();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto row = static_cast<std::uint32_t>(first + k);
    ServerRecord& r = out[k];
    r.id = ServerId{static_cast<std::int32_t>(first_row_id + row)};
    require(type[row] < kMachineTypeCount, [&] {
      return "columnar: invalid machine type " + std::to_string(type[row]);
    });
    r.type = static_cast<MachineType>(type[row]);
    r.subsystem = checked_subsystem(subsystem[row]);
    r.cpu_count = cpu_count[row];
    r.memory_gb = memory_gb[row];
    r.disk_gb = disk_gb.present_at(row)
                    ? std::optional<double>(disk_gb.double_at(row))
                    : std::nullopt;
    r.disk_count =
        disk_count.present_at(row)
            ? std::optional<int>(static_cast<int>(disk_count.int_at(row)))
            : std::nullopt;
    r.host_box = BoxId{host_box[row]};
    r.first_record = first_record[row];
  }
}

void decode_rows(const ChunkView& view, std::uint32_t first,
                 std::int64_t first_row_id, std::span<Ticket> out) {
  using namespace columnar::col;
  require_rows(view, first, out.size());
  const auto incident = view.column(kTicketIncident).i32_span();
  const auto server = view.column(kTicketServer).i32_span();
  const auto subsystem = view.column(kTicketSubsystem).u8_span();
  const auto is_crash = view.column(kTicketIsCrash).u8_span();
  const auto true_class = view.column(kTicketTrueClass).u8_span();
  const auto opened = view.column(kTicketOpened).i64_span();
  const auto closed = view.column(kTicketClosed).i64_span();
  const columnar::ColumnView& description = view.column(kTicketDescription);
  const columnar::ColumnView& resolution = view.column(kTicketResolution);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto row = static_cast<std::uint32_t>(first + k);
    Ticket& t = out[k];
    t.id = TicketId{static_cast<std::int32_t>(first_row_id + row)};
    t.incident = IncidentId{incident[row]};
    t.server = ServerId{server[row]};
    t.subsystem = checked_subsystem(subsystem[row]);
    require(is_crash[row] <= 1, [&] {
      return "columnar: invalid is_crash " + std::to_string(is_crash[row]);
    });
    t.is_crash = is_crash[row] != 0;
    require(true_class[row] < kFailureClassCount, [&] {
      return "columnar: invalid failure class " +
             std::to_string(true_class[row]);
    });
    t.true_class = static_cast<FailureClass>(true_class[row]);
    t.opened = opened[row];
    t.closed = closed[row];
    t.description.assign(description.string_at(row));
    t.resolution.assign(resolution.string_at(row));
  }
}

void decode_rows(const ChunkView& view, std::uint32_t first,
                 std::int64_t /*first_row_id*/, std::span<WeeklyUsage> out) {
  using namespace columnar::col;
  require_rows(view, first, out.size());
  const auto server = view.column(kUsageServer).i32_span();
  const auto week = view.column(kUsageWeek).i32_span();
  const auto cpu = view.column(kUsageCpuUtil).f64_span();
  const auto mem = view.column(kUsageMemUtil).f64_span();
  const columnar::ColumnView& disk = view.column(kUsageDiskUtil);
  const columnar::ColumnView& net = view.column(kUsageNetKbps);
  const auto disk_values = disk.f64_span();
  const auto net_values = net.f64_span();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto row = static_cast<std::uint32_t>(first + k);
    WeeklyUsage& u = out[k];
    u.server = ServerId{server[row]};
    u.week = week[row];
    u.cpu_util = cpu[row];
    u.mem_util = mem[row];
    u.disk_util = disk.present_at(row) ? std::optional(disk_values[row])
                                       : std::nullopt;
    u.net_kbps =
        net.present_at(row) ? std::optional(net_values[row]) : std::nullopt;
  }
}

void decode_rows(const ChunkView& view, std::uint32_t first,
                 std::int64_t /*first_row_id*/, std::span<PowerEvent> out) {
  using namespace columnar::col;
  require_rows(view, first, out.size());
  const auto server = view.column(kPowerServer).i32_span();
  const auto at = view.column(kPowerAt).i64_span();
  const auto on = view.column(kPowerOn).u8_span();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto row = static_cast<std::uint32_t>(first + k);
    out[k] = {ServerId{server[row]}, at[row], on[row] != 0};
  }
}

void decode_rows(const ChunkView& view, std::uint32_t first,
                 std::int64_t /*first_row_id*/,
                 std::span<MonthlySnapshot> out) {
  using namespace columnar::col;
  require_rows(view, first, out.size());
  const auto server = view.column(kSnapServer).i32_span();
  const auto month = view.column(kSnapMonth).i32_span();
  const auto box = view.column(kSnapBox).i32_span();
  const auto consolidation = view.column(kSnapConsolidation).i32_span();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto row = static_cast<std::uint32_t>(first + k);
    out[k] = {ServerId{server[row]}, month[row], BoxId{box[row]},
              consolidation[row]};
  }
}

namespace {

template <typename Row>
Row decode_one(const ChunkView& view, std::uint32_t row,
               std::int64_t first_row_id) {
  Row out;
  decode_rows(view, row, first_row_id, std::span<Row>(&out, 1));
  return out;
}

}  // namespace

ServerRecord decode_server(const ChunkView& view, std::uint32_t row,
                           std::int64_t first_row_id) {
  return decode_one<ServerRecord>(view, row, first_row_id);
}

Ticket decode_ticket(const ChunkView& view, std::uint32_t row,
                     std::int64_t first_row_id) {
  return decode_one<Ticket>(view, row, first_row_id);
}

WeeklyUsage decode_weekly_usage(const ChunkView& view, std::uint32_t row) {
  return decode_one<WeeklyUsage>(view, row, 0);
}

PowerEvent decode_power_event(const ChunkView& view, std::uint32_t row) {
  return decode_one<PowerEvent>(view, row, 0);
}

MonthlySnapshot decode_snapshot(const ChunkView& view, std::uint32_t row) {
  return decode_one<MonthlySnapshot>(view, row, 0);
}

// ---- whole-database convenience ----

void write_columnar(const TraceDatabase& db, ColumnarWriter& writer) {
  writer.set_windows(db.window(), db.monitoring(), db.onoff_tracking());
  std::int32_t next_incident = 0;
  for (const Ticket& t : db.tickets()) {
    next_incident = std::max(next_incident, t.incident.value + 1);
  }
  writer.set_next_incident(next_incident);
  for (const ServerRecord& s : db.servers()) writer.add_server(s);
  writer.add_tickets(db.tickets());
  for (const ServerRecord& s : db.servers()) {
    for (const WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      writer.add_weekly_usage(u);
    }
  }
  for (const ServerRecord& s : db.servers()) {
    for (const PowerEvent& e : db.power_events_for(s.id)) {
      writer.add_power_event(e);
    }
  }
  for (const ServerRecord& s : db.servers()) {
    for (const MonthlySnapshot& m : db.snapshots_for(s.id)) {
      writer.add_monthly_snapshot(m);
    }
  }
}

FileReport save_columnar(const TraceDatabase& db, const std::string& path,
                         std::uint32_t chunk_rows) {
  obs::Span span("trace.columnar.save");
  ColumnarWriter writer(path, chunk_rows);
  write_columnar(db, writer);
  writer.finish();
  return writer.report();
}

namespace {

// Chunks per load wave. A wave is read serially, then decoded in parallel;
// it bounds how many chunk copies (buffered) or resident mapped chunks
// (mmap, released after each wave) a load holds.
constexpr std::size_t kLoadWaveChunks = 8;

// What a load does with a chunk that cannot be read (truncated, corrupt,
// undecodable header, I/O error).
enum class BadChunk {
  kThrow,  // strict: throw its ChunkError
  kSkip,   // lenient: record it in the report and go on
  kStop,   // lenient: record it and read no further chunks
};

// The chunk decoder both loaders share. Chunks of `table` go
// kLoadWaveChunks at a time. A wave's chunks are fetched serially in index
// order (so buffered reads keep their order), each followed by
// rows_for(i), a span exactly as long as chunk i; then one parallel task
// per chunk verifies it and decodes its rows into that span. Once the wave
// has joined, its outcomes are settled in index order: the first failing
// chunk's ChunkError is thrown (kThrow), or recorded and skipped (kSkip),
// or recorded and ends the read (kStop); an error decoding a verified
// chunk's rows is thrown under every policy. So the error thrown is always
// that of the lowest-index failing chunk, at any thread count. The wave's
// pages are then released and wave_done, if set, gets the row spans of
// the decoded chunks in index order. Returns the index of the chunk a
// kStop halted at, else the chunk count.
template <typename Row>
std::size_t decode_table(
    const ChunkReader& reader, Table table, BadChunk on_bad,
    DegradedReadReport* report,
    const std::function<std::span<Row>(std::size_t)>& rows_for,
    const std::function<void(std::span<const std::span<Row>>)>& wave_done =
        nullptr) {
  struct Job {
    std::size_t index;
    std::int64_t first_row;
    std::optional<ChunkReader::ChunkBytes> bytes;
    std::span<Row> rows;
    std::exception_ptr error;
  };
  const std::size_t chunks = reader.chunk_count(table);
  std::int64_t first_row = 0;
  for (std::size_t first = 0; first < chunks; first += kLoadWaveChunks) {
    const std::size_t last = std::min(chunks, first + kLoadWaveChunks);
    std::vector<Job> jobs;
    jobs.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      Job& job = jobs.emplace_back(Job{i, first_row, {}, {}, {}});
      first_row += reader.chunk_info(table, i).rows;
      try {
        job.bytes.emplace(reader.fetch(table, i));
      } catch (const ChunkError&) {
        job.error = std::current_exception();
        // Only kSkip can use a chunk after a failed one.
        if (on_bad != BadChunk::kSkip) break;
        continue;
      }
      job.rows = rows_for(i);
    }
    parallel_for(jobs.size(), [&](std::size_t j) {
      Job& job = jobs[j];
      if (job.error) return;
      try {
        const ChunkView view = reader.verify(std::move(*job.bytes));
        decode_rows(view, 0, job.first_row, job.rows);
      } catch (...) {
        job.error = std::current_exception();
      }
    });
    std::vector<std::span<Row>> decoded;
    decoded.reserve(jobs.size());
    std::size_t halted = chunks;
    for (const Job& job : jobs) {
      if (job.error) {
        try {
          std::rethrow_exception(job.error);
        } catch (const ChunkError& e) {
          if (on_bad == BadChunk::kThrow) throw;
          report->record(e, reader.chunk_info(table, job.index).rows);
          if (on_bad == BadChunk::kStop) {
            halted = job.index;
            break;
          }
          continue;
        }
      }
      decoded.push_back(job.rows);
    }
    reader.release(table, first, last);
    if (wave_done) wave_done(decoded);
    if (halted != chunks) return halted;
  }
  return chunks;
}

// Strict: decodes every chunk of the table straight into rows appended to
// `db`, each chunk into its own range.
template <typename Row>
void load_table(const ChunkReader& reader, Table table, TraceDatabase& db) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < reader.chunk_count(table); ++i) {
    total += reader.chunk_info(table, i).rows;
  }
  const std::span<Row> rows = db.append_rows<Row>(total);
  std::size_t next = 0;
  decode_table<Row>(reader, table, BadChunk::kThrow, nullptr,
                    [&](std::size_t i) {
                      const std::span<Row> out = rows.subspan(
                          next, reader.chunk_info(table, i).rows);
                      next += out.size();
                      return out;
                    });
}

// Lenient: decodes the readable chunks of the table one wave at a time into
// staging and hands every decoded row, in file order, to keep(). Returns
// what decode_table returns.
template <typename Row, typename Keep>
std::size_t stage_table(const ChunkReader& reader, Table table,
                        BadChunk on_bad, DegradedReadReport& report,
                        const Keep& keep) {
  // One staging vector per fetched chunk of the wave. Growing `wave` moves
  // the inner vectors, which keeps their buffers, so handed-out spans stay
  // valid.
  std::vector<std::vector<Row>> wave;
  return decode_table<Row>(
      reader, table, on_bad, &report,
      [&](std::size_t i) -> std::span<Row> {
        return wave.emplace_back(reader.chunk_info(table, i).rows);
      },
      [&](std::span<const std::span<Row>> decoded) {
        for (const std::span<Row> rows : decoded) {
          for (Row& row : rows) keep(std::move(row));
        }
        wave.clear();
      });
}

}  // namespace

TraceDatabase load_columnar(const std::string& path, bool use_mmap) {
  obs::Span span("trace.columnar.load");
  ChunkReader reader(path, use_mmap);
  TraceDatabase db;
  db.set_windows(reader.window(), reader.monitoring(),
                 reader.onoff_tracking());
  load_table<ServerRecord>(reader, Table::kServers, db);
  load_table<Ticket>(reader, Table::kTickets, db);
  load_table<WeeklyUsage>(reader, Table::kWeeklyUsage, db);
  load_table<PowerEvent>(reader, Table::kPowerEvents, db);
  load_table<MonthlySnapshot>(reader, Table::kSnapshots, db);
  for (std::int32_t i = 0; i < reader.next_incident(); ++i) {
    db.new_incident();
  }
  db.finalize();
  return db;
}

TraceDatabase load_columnar_lenient(const std::string& path,
                                    DegradedReadReport& report,
                                    bool use_mmap) {
  obs::Span span("trace.columnar.load_lenient");
  ChunkReader reader(path, use_mmap);
  TraceDatabase db;
  db.set_windows(reader.window(), reader.monitoring(),
                 reader.onoff_tracking());

  // Server ids are row positions, so a damaged server chunk orphans every
  // later positional id: keep only the longest undamaged chunk prefix.
  std::int64_t servers_loaded = 0;
  const std::size_t server_chunks = reader.chunk_count(Table::kServers);
  const std::size_t gap = stage_table<ServerRecord>(
      reader, Table::kServers, BadChunk::kStop, report,
      [&](ServerRecord&& s) {
        db.add_server(std::move(s));
        ++servers_loaded;
      });
  for (std::size_t i = gap + 1; i < server_chunks; ++i) {
    report.rows_dropped_dangling += reader.chunk_info(Table::kServers, i).rows;
  }
  // Skipping a damaged chunk of the other tables is safe: their rows carry
  // no positional ids that later rows depend on. Rows that reference a
  // server outside the loaded prefix are dropped as dangling.
  const auto dangling = [&](ServerId server) {
    if (server.value >= 0 && server.value < servers_loaded) return false;
    ++report.rows_dropped_dangling;
    return true;
  };
  std::int32_t max_incident = -1;
  stage_table<Ticket>(reader, Table::kTickets, BadChunk::kSkip, report,
                      [&](Ticket&& t) {
                        // finalize()'s rule: a background ticket may have
                        // no server; one it names must be loaded.
                        if ((t.is_crash || t.server.valid()) &&
                            dangling(t.server)) {
                          return;
                        }
                        max_incident =
                            std::max(max_incident, t.incident.value);
                        db.add_ticket(std::move(t));
                      });
  stage_table<WeeklyUsage>(reader, Table::kWeeklyUsage, BadChunk::kSkip,
                           report, [&](WeeklyUsage&& u) {
                             if (!dangling(u.server)) db.add_weekly_usage(u);
                           });
  stage_table<PowerEvent>(reader, Table::kPowerEvents, BadChunk::kSkip,
                          report, [&](PowerEvent&& e) {
                            if (!dangling(e.server)) db.add_power_event(e);
                          });
  stage_table<MonthlySnapshot>(
      reader, Table::kSnapshots, BadChunk::kSkip, report,
      [&](MonthlySnapshot&& m) {
        if (!dangling(m.server)) db.add_monthly_snapshot(m);
      });
  const std::int32_t next_incident =
      std::max(reader.next_incident(), max_incident + 1);
  for (std::int32_t i = 0; i < next_incident; ++i) db.new_incident();
  db.finalize();
  return db;
}

}  // namespace fa::trace
