#include "paris/storage/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>

#include "paris/storage/mmap_file.h"
#include "paris/util/fault_injection.h"
#include "paris/util/fs.h"

namespace paris::storage {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t FnvHash(const void* data, size_t size) {
  return HashBytes(14695981039346656037ull, data, size);
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

void SnapshotWriter::WriteBytes(const void* data, size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  checksum_ = HashBytes(checksum_, data, size);
  offset_ += size;
}

void SnapshotWriter::AlignTo8() {
  static constexpr char kZeros[8] = {};
  const size_t pad = (8 - offset_ % 8) % 8;
  if (pad != 0) WriteBytes(kZeros, pad);
}

void SnapshotWriter::WriteU8(uint8_t v) { WriteBytes(&v, 1); }

void SnapshotWriter::WriteU32(uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  WriteBytes(b, 4);
}

void SnapshotWriter::WriteU64(uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  WriteBytes(b, 8);
}

void SnapshotWriter::WriteDouble(double v) {
  WriteU64(std::bit_cast<uint64_t>(v));
}

void SnapshotWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

bool SnapshotWriter::ok() const { return static_cast<bool>(out_); }

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

bool SnapshotReader::ReadBytes(void* data, size_t size) {
  if (failed_) return false;
  if (memory_backed()) {
    if (size > size_ - pos_) {
      failed_ = true;
      std::memset(data, 0, size);
      return false;
    }
    // No hashing: the memory-backed caller verified the whole-file checksum
    // before constructing the reader.
    std::memcpy(data, data_ + pos_, size);
    pos_ += size;
    return true;
  }
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_->gcount()) != size) {
    failed_ = true;
    std::memset(data, 0, size);
    return false;
  }
  checksum_ = HashBytes(checksum_, data, size);
  pos_ += size;
  return true;
}

bool SnapshotReader::SkipPodArray(size_t element_size) {
  const uint64_t n = ReadU64();
  if (n > kMaxElements) {
    failed_ = true;
    return false;
  }
  SkipAlignmentPadding();
  uint64_t remaining = n * element_size;
  if (memory_backed()) {
    if (failed_ || remaining > size_ - pos_) {
      failed_ = true;
      return false;
    }
    pos_ += remaining;
    return true;
  }
  unsigned char scratch[1 << 12];
  while (remaining > 0) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(sizeof(scratch), remaining));
    if (!ReadBytes(scratch, take)) return false;
    remaining -= take;
  }
  return ok();
}

void SnapshotReader::SkipAlignmentPadding() {
  const size_t pad = (8 - pos_ % 8) % 8;
  if (pad == 0) return;
  unsigned char scratch[8];
  ReadBytes(scratch, pad);
}

uint8_t SnapshotReader::ReadU8() {
  uint8_t v = 0;
  ReadBytes(&v, 1);
  return v;
}

uint32_t SnapshotReader::ReadU32() {
  unsigned char b[4] = {};
  ReadBytes(b, 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[i]) << (8 * i);
  return v;
}

uint64_t SnapshotReader::ReadU64() {
  unsigned char b[8] = {};
  ReadBytes(b, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

double SnapshotReader::ReadDouble() {
  return std::bit_cast<double>(ReadU64());
}

std::string SnapshotReader::ReadString(uint64_t max_size) {
  const uint64_t n = ReadU64();
  if (n > max_size) {
    failed_ = true;
    return {};
  }
  std::string s;
  constexpr uint64_t kChunk = 1 << 16;
  for (uint64_t done = 0; done < n;) {
    const uint64_t take = std::min(kChunk, n - done);
    const size_t old_size = s.size();
    s.resize(old_size + take);
    if (!ReadBytes(s.data() + old_size, take)) return {};
    done += take;
  }
  return s;
}

uint64_t SnapshotReader::ReadChecksumTrailer() {
  // Streaming mode only: the mmap path verifies the whole-file trailer with
  // FnvHash before constructing its reader.
  if (failed_ || memory_backed()) {
    failed_ = true;
    return 0;
  }
  unsigned char b[8] = {};
  in_->read(reinterpret_cast<char*>(b), 8);
  if (in_->gcount() != 8) {
    failed_ = true;
    return 0;
  }
  pos_ += 8;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

void WriteSnapshotHeader(SnapshotWriter& writer, std::ostream& raw,
                         uint32_t version) {
  raw.write(kSnapshotMagic, sizeof(kSnapshotMagic));  // excluded from hash
  writer.WriteU32(version);
}

namespace {

using SectionLoader =
    std::function<util::Status(SnapshotReader&, uint32_t file_version)>;

util::Status LoadSnapshotFileFromStream(const std::string& path,
                                        const char (&magic)[8],
                                        uint32_t min_version,
                                        uint32_t max_version, const char* kind,
                                        const SectionLoader& load_sections) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::NotFoundError("cannot open " + std::string(kind) + " " +
                               path);
  }
  char file_magic[8] = {};
  in.read(file_magic, sizeof(file_magic));
  if (in.gcount() != sizeof(file_magic) ||
      std::memcmp(file_magic, magic, sizeof(file_magic)) != 0) {
    return util::InvalidArgumentError("not a PARIS " + std::string(kind) +
                                      " (bad magic): " + path);
  }
  SnapshotReader reader(in);
  const uint32_t file_version = reader.ReadU32();
  if (!reader.ok()) {
    return util::DataLossError("truncated " + std::string(kind) + " header");
  }
  if (file_version < min_version || file_version > max_version) {
    return util::InvalidArgumentError(
        "unsupported " + std::string(kind) + " version " +
        std::to_string(file_version) + ": " + path);
  }
  util::Status status = load_sections(reader, file_version);
  if (!status.ok()) {
    // The streaming reader only sees the checksum trailer after the
    // sections, so a flipped byte inside them can surface as a section-level
    // FAILED_PRECONDITION (e.g. a garbled run-key field reading as "a
    // different config") instead of as corruption. Such verdicts are only
    // trustworthy over an intact file: drain the remainder, extend the
    // running hash, and report a trailer mismatch as corruption instead.
    if (status.code() == util::StatusCode::kFailedPrecondition &&
        reader.ok()) {
      // Chunked drain with an 8-byte rolling tail (the candidate trailer),
      // hashing everything before it — O(1) memory however large the file.
      uint64_t computed = reader.checksum();
      char tail[sizeof(uint64_t)];
      size_t tail_size = 0;
      char chunk[1 << 16];
      while (in) {
        in.read(chunk, sizeof(chunk));
        const size_t got = static_cast<size_t>(in.gcount());
        if (got == 0) break;
        if (tail_size + got <= sizeof(tail)) {
          std::memcpy(tail + tail_size, chunk, got);
          tail_size += got;
          continue;
        }
        const size_t hashable = tail_size + got - sizeof(tail);
        const size_t from_tail = std::min(tail_size, hashable);
        computed = HashBytes(computed, tail, from_tail);
        computed = HashBytes(computed, chunk, hashable - from_tail);
        char next_tail[sizeof(tail)];
        size_t n = 0;
        for (size_t i = from_tail; i < tail_size; ++i) {
          next_tail[n++] = tail[i];
        }
        for (size_t i = hashable - from_tail; i < got; ++i) {
          next_tail[n++] = chunk[i];
        }
        std::memcpy(tail, next_tail, n);
        tail_size = n;
      }
      if (tail_size < sizeof(tail)) {
        return util::DataLossError("corrupt " + std::string(kind) +
                                   " (checksum mismatch): " + path);
      }
      uint64_t stored = 0;
      for (size_t i = 0; i < sizeof(tail); ++i) {
        stored |= static_cast<uint64_t>(static_cast<unsigned char>(tail[i]))
                  << (8 * i);
      }
      if (computed != stored) {
        return util::DataLossError("corrupt " + std::string(kind) +
                                   " (checksum mismatch): " + path);
      }
    }
    return status;
  }
  const uint64_t computed = reader.checksum();
  const uint64_t stored = reader.ReadChecksumTrailer();
  if (!reader.ok() || computed != stored) {
    return util::DataLossError("corrupt " + std::string(kind) +
                               " (checksum mismatch): " + path);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return util::DataLossError("corrupt " + std::string(kind) +
                               " (trailing bytes): " + path);
  }
  return util::OkStatus();
}

util::Status LoadSnapshotFileFromMapping(std::shared_ptr<MappedFile> mapping,
                                         const std::string& path,
                                         const char (&magic)[8],
                                         uint32_t min_version,
                                         uint32_t max_version, const char* kind,
                                         const SectionLoader& load_sections) {
  const std::span<const std::byte> bytes = mapping->bytes();
  constexpr size_t kMagicSize = 8;
  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), magic, kMagicSize) != 0) {
    return util::InvalidArgumentError("not a PARIS " + std::string(kind) +
                                      " (bad magic): " + path);
  }
  if (bytes.size() < kMagicSize + sizeof(uint32_t) + sizeof(uint64_t)) {
    return util::DataLossError("truncated " + std::string(kind) + ": " + path);
  }

  // Checksum-before-map policy: verify the trailer over the whole mapping
  // before any structure adopts a view into it. This touches every byte
  // once (like the streaming reader) but nothing is copied.
  const size_t body_size = bytes.size() - kMagicSize - sizeof(uint64_t);
  const uint64_t computed = FnvHash(bytes.data() + kMagicSize, body_size);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (computed != stored) {
    return util::DataLossError("corrupt " + std::string(kind) +
                               " (checksum mismatch): " + path);
  }

  SnapshotReader reader(bytes);
  reader.set_view_owner(std::move(mapping));
  const uint32_t file_version = reader.ReadU32();
  if (!reader.ok() || file_version < min_version ||
      file_version > max_version) {
    return util::InvalidArgumentError(
        "unsupported " + std::string(kind) + " version " +
        std::to_string(file_version) + ": " + path);
  }
  util::Status status = load_sections(reader, file_version);
  if (!status.ok()) return status;
  if (reader.position() != bytes.size() - sizeof(uint64_t)) {
    return util::DataLossError("corrupt " + std::string(kind) +
                               " (trailing bytes): " + path);
  }
  return util::OkStatus();
}

}  // namespace

util::Status LoadSnapshotFile(
    const std::string& path, SnapshotLoadMode mode, const char (&magic)[8],
    uint32_t min_version, uint32_t max_version, const char* kind,
    const std::function<util::Status(SnapshotReader&, uint32_t file_version)>&
        load_sections) {
  const util::FaultAction fault =
      util::CheckFaultRetryingTransient("snapshot.read");
  if (fault.kind == util::FaultKind::kErrno) {
    return util::InternalError("read failed for '" + path +
                               "': " + std::strerror(fault.error_number));
  }
  if (mode == SnapshotLoadMode::kStream) {
    return LoadSnapshotFileFromStream(path, magic, min_version, max_version,
                                      kind, load_sections);
  }
  auto mapping = MappedFile::Open(path);
  if (!mapping.ok()) {
    // Only a map failure falls back; content errors never do.
    if (mode == SnapshotLoadMode::kMmap) return mapping.status();
    return LoadSnapshotFileFromStream(path, magic, min_version, max_version,
                                      kind, load_sections);
  }
  return LoadSnapshotFileFromMapping(std::move(mapping).value(), path, magic,
                                     min_version, max_version, kind,
                                     load_sections);
}

// ---------------------------------------------------------------------------
// Term pool
// ---------------------------------------------------------------------------

void SaveTermPool(const rdf::TermPool& pool, SnapshotWriter& writer) {
  writer.WriteU64(pool.size());
  for (rdf::TermId id = 0; id < pool.size(); ++id) {
    writer.WriteU8(static_cast<uint8_t>(pool.kind(id)));
    writer.WriteString(pool.lexical(id));
  }
}

util::Status LoadTermPool(SnapshotReader& reader, rdf::TermPool* pool) {
  if (pool->size() != 0) {
    return util::FailedPreconditionError(
        "snapshot must be loaded into an empty term pool");
  }
  const uint64_t count = reader.ReadU64();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    const uint8_t kind = reader.ReadU8();
    if (kind > static_cast<uint8_t>(rdf::TermKind::kLiteral)) {
      reader.MarkFailed();
      break;
    }
    const std::string lexical = reader.ReadString();
    if (!reader.ok()) break;
    const rdf::TermId id =
        pool->Intern(lexical, static_cast<rdf::TermKind>(kind));
    if (id != i) {
      // A duplicate (lexical, kind) row — the bytes are corrupt.
      reader.MarkFailed();
      break;
    }
  }
  if (!reader.ok()) {
    return util::DataLossError("corrupt term pool section");
  }
  return util::OkStatus();
}

}  // namespace paris::storage
