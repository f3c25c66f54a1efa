// Copyright (c) 2026 The DeltaMerge Authors.
// Buffered POSIX file I/O for the durability layer (src/persist).
//
// FileWriter batches small writes (a WAL frame, a checkpoint field) into one
// write(2) per buffer fill, keeps an optional running CRC-32 of the bytes
// written, and separates Flush (hand bytes to the OS) from Sync (fdatasync —
// the durability point the WAL sync policies are defined against).
// FileReader is the sequential mirror with the same running CRC, so a
// checkpoint can be validated while it streams in. Free helpers cover the
// directory-level crash-consistency idioms: atomic rename, directory fsync,
// listing.
//
// The running CRC is armed by the first ResetCrc() and costs nothing before
// it. Checkpoints and manifests arm it right after their magic; WAL
// segments never do, because every frame already carries its own CRC —
// so each durable byte is checksummed exactly once.
//
// Exception-free like the rest of the tree: failures surface as Status.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace deltamerge {

/// Buffered writer over one file descriptor. Not thread-safe; callers
/// serialize externally (the WAL does so under its append mutex) — except
/// Sync(), which touches only the fd and may run concurrently with buffer
/// fills as long as no Flush() races it.
class FileWriter {
 public:
  static constexpr size_t kDefaultBufferBytes = 256 * 1024;

  /// Creates (or truncates) `path` for writing.
  static Result<std::unique_ptr<FileWriter>> Create(const std::string& path);

  ~FileWriter();
  DM_DISALLOW_COPY_AND_MOVE(FileWriter);

  /// Buffers `n` bytes; writes through to the fd when the buffer fills.
  Status Write(const void* data, size_t n);

  Status WriteU8(uint8_t v) { return Write(&v, sizeof(v)); }
  Status WriteU32(uint32_t v) { return Write(&v, sizeof(v)); }
  Status WriteU64(uint64_t v) { return Write(&v, sizeof(v)); }

  /// Hands every buffered byte to the OS (write(2)); no durability promise.
  Status Flush();

  /// Flush + fdatasync: everything written so far survives a crash.
  Status Sync();

  /// fdatasync only — for callers that Flush() under their own lock and
  /// want the (slow) sync outside it. Touches nothing but the fd, so it may
  /// run concurrently with Write()/Flush() from another thread.
  Status SyncData();

  /// Flush + close. Further writes are errors. Idempotent.
  Status Close();

  const std::string& path() const { return path_; }
  uint64_t bytes_written() const { return bytes_written_; }

  /// Running CRC-32 of every byte passed to Write since the last ResetCrc;
  /// 0 until the first ResetCrc arms it.
  uint32_t crc() const { return crc_; }
  void ResetCrc() {
    crc_ = 0;
    crc_armed_ = true;
  }

 private:
  FileWriter(std::string path, int fd);

  std::string path_;
  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  uint64_t bytes_written_ = 0;
  uint32_t crc_ = 0;
  bool crc_armed_ = false;
};

/// Buffered sequential reader with the same running CRC as FileWriter.
class FileReader {
 public:
  static constexpr size_t kDefaultBufferBytes = 256 * 1024;

  static Result<std::unique_ptr<FileReader>> Open(const std::string& path);

  ~FileReader();
  DM_DISALLOW_COPY_AND_MOVE(FileReader);

  /// Reads exactly `n` bytes; OutOfRange if the file ends first.
  Status Read(void* out, size_t n);

  /// Reads up to `n` bytes; returns how many were read (0 at EOF). Used by
  /// the WAL replay loop, where a short read means a torn tail, not an
  /// error. Like FileWriter::Write, it bypasses its drained buffer for a
  /// remainder of at least kDefaultBufferBytes.
  Result<size_t> ReadUpTo(void* out, size_t n);

  Status ReadU8(uint8_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }

  const std::string& path() const { return path_; }
  uint64_t offset() const { return offset_; }
  uint64_t file_size() const { return file_size_; }

  /// Running CRC-32 of every byte returned since the last ResetCrc; 0
  /// until the first ResetCrc arms it.
  uint32_t crc() const { return crc_; }
  void ResetCrc() {
    crc_ = 0;
    crc_armed_ = true;
  }

 private:
  FileReader(std::string path, int fd, uint64_t file_size);

  std::string path_;
  int fd_ = -1;
  uint64_t file_size_ = 0;
  uint64_t offset_ = 0;  ///< logical read offset (bytes handed out)
  std::vector<uint8_t> buffer_;
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
  uint32_t crc_ = 0;
  bool crc_armed_ = false;
};

/// mkdir -p (single level is enough for the persist layout).
Status EnsureDir(const std::string& dir);

/// fsync on the directory itself, making renames/creates/unlinks in it
/// durable.
Status SyncDir(const std::string& dir);

/// rename(2) `from` -> `to`, then fsync the containing directory `dir`.
/// The atomic-install idiom checkpoints use: write tmp, sync tmp, rename.
Status AtomicRename(const std::string& from, const std::string& to,
                    const std::string& dir);

/// Unlinks `path`; missing files are not an error.
Status RemoveFile(const std::string& path);

/// Removes everything inside `dir` (recursing into subdirectories — the
/// partitioned layout nests one segment directory level), then the
/// directory itself. A missing directory is not an error. For tests,
/// benches, and tools tearing down table dirs.
Status RemoveDirAll(const std::string& dir);

bool FileExists(const std::string& path);

/// Regular-file size, or an error if `path` cannot be stat'ed.
Result<uint64_t> FileSize(const std::string& path);

/// Shrinks (or extends with zeros) `path` to `size` bytes — the crash
/// simulator for the recovery torture tests.
Status TruncateFile(const std::string& path, uint64_t size);

/// Names (not paths) of the regular files directly inside `dir`, sorted.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace deltamerge
