#ifndef UMGAD_COMMON_BYTE_IO_H_
#define UMGAD_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/result.h"
#include "common/span.h"
#include "common/string_util.h"

namespace umgad {

/// The binary containers (`.umgb` graphs, `.umgm` models) are little-endian
/// and move raw host bytes, so both refuse to run on big-endian hosts.
inline bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

inline Status RequireLittleEndianHost() {
  if (HostIsLittleEndian()) return Status::OK();
  return Status::FailedPrecondition(
      "umgad binary files (.umgb, .umgm) are little-endian; big-endian "
      "hosts are not supported");
}

/// Bounds-checked cursor over a byte span: the one reader behind every
/// binary container, whatever holds the bytes (a file mapping or an owned
/// buffer). Every read is checked against the remaining byte count first
/// and fails with InvalidArgument naming `what`; element counts are bounded
/// by dividing the remaining bytes, never by multiplying the count, so a
/// hostile count cannot wrap past the span. Scalars are memcpy'd (header
/// fields sit at arbitrary offsets); View hands out in-place pointers.
class ByteReader {
 public:
  ByteReader(const unsigned char* base, int64_t size)
      : base_(base), size_(size) {}

  int64_t Remaining() const { return size_ - pos_; }

  template <typename T>
  Status Pod(T* value, const char* what) {
    if (Remaining() < static_cast<int64_t>(sizeof(T))) {
      return Status::InvalidArgument(StrFormat("truncated %s", what));
    }
    std::memcpy(value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Fails unless `count` elements of T remain (a caller sizing its own
  /// destination checks this before allocating).
  template <typename T>
  Status Require(int64_t count, const char* what) const {
    if (count < 0 || count > Remaining() / static_cast<int64_t>(sizeof(T))) {
      return Status::InvalidArgument(StrFormat(
          "truncated or corrupt %s: %lld elements declared", what,
          static_cast<long long>(count)));
    }
    return Status::OK();
  }

  /// Copies `count` elements into `dst` (no alignment requirement).
  template <typename T>
  Status Read(T* dst, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(Require<T>(count, what));
    const int64_t bytes = count * static_cast<int64_t>(sizeof(T));
    if (bytes > 0) std::memcpy(dst, base_ + pos_, static_cast<size_t>(bytes));
    pos_ += bytes;
    return Status::OK();
  }

  /// A u32 length prefix, then that many bytes; lengths above `max_len`
  /// fail as oversized before any byte is read.
  Status String(std::string* s, int64_t max_len, const char* what) {
    uint32_t len = 0;
    UMGAD_RETURN_IF_ERROR(Pod(&len, what));
    if (static_cast<int64_t>(len) > max_len) {
      return Status::InvalidArgument(StrFormat("oversized %s", what));
    }
    UMGAD_RETURN_IF_ERROR(Skip(len, what));
    s->assign(reinterpret_cast<const char*>(base_ + pos_ - len), len);
    return Status::OK();
  }

  Status Skip(int64_t n, const char* what) {
    if (n < 0 || n > Remaining()) {
      return Status::InvalidArgument(StrFormat(
          "truncated %s: need %lld bytes, %lld left", what,
          static_cast<long long>(n), static_cast<long long>(Remaining())));
    }
    pos_ += n;
    return Status::OK();
  }

  /// Skips the zero padding a ByteWriter::Align(alignment) emitted.
  Status Align(int64_t alignment, const char* what) {
    return Skip((alignment - pos_ % alignment) % alignment, what);
  }

  /// A view of `count` elements of T at the cursor: no copy, no
  /// allocation. The container's layout must place the array at an offset
  /// aligned for T, and the base must be aligned at least as strictly (a
  /// mapping is page-aligned, an owned buffer is allocated as 8-byte
  /// words) — a misaligned view is a programmer error.
  template <typename T>
  Status View(ConstSpan<T>* out, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(Require<T>(count, what));
    UMGAD_CHECK(reinterpret_cast<uintptr_t>(base_ + pos_) % alignof(T) == 0);
    *out = ConstSpan<T>(reinterpret_cast<const T*>(base_ + pos_),
                        static_cast<size_t>(count));
    pos_ += count * static_cast<int64_t>(sizeof(T));
    return Status::OK();
  }

 private:
  const unsigned char* base_;
  int64_t size_;
  int64_t pos_ = 0;
};

/// A whole file read into one owned buffer, sized from the file's stat size
/// (never from anything inside the file). The storage is allocated as
/// 8-byte words, so every offset a container aligns to 8 or less is aligned
/// in memory too and ByteReader::View may point into it.
class FileImage {
 public:
  /// IoError when the file cannot be opened, stat'ed or fully read.
  static Result<std::shared_ptr<const FileImage>> Read(
      const std::string& path);

  const unsigned char* data() const {
    return reinterpret_cast<const unsigned char*>(words_.get());
  }
  int64_t size() const { return size_; }

 private:
  FileImage(std::unique_ptr<int64_t[]> words, int64_t size)
      : words_(std::move(words)), size_(size) {}

  std::unique_ptr<int64_t[]> words_;
  int64_t size_;
};

/// Sequential writer that replaces `path` atomically: the bytes go to
/// `<path>.tmp.<pid>` in the same directory, and Commit() renames that over
/// `path` only after a clean close. Until then — and forever, if the write
/// fails or the writer is destroyed uncommitted (the temp file is removed)
/// — `path` keeps its old contents and inode, so a live mapping of it is
/// never truncated underneath its reader.
class ByteWriter {
 public:
  explicit ByteWriter(const std::string& path);
  ~ByteWriter();
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  template <typename T>
  void Pod(T value) {
    Bytes(&value, sizeof(T));
  }

  void Bytes(const void* data, size_t n);

  /// A u32 length prefix, then the bytes (ByteReader::String's layout).
  void String(const std::string& s) {
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  /// Zero-pads to the next multiple of `alignment` (at most 8) bytes.
  void Align(int64_t alignment) {
    UMGAD_CHECK(alignment > 0 && alignment <= 8);
    static const char zeros[8] = {};
    Bytes(zeros, static_cast<size_t>((alignment - written_ % alignment) %
                                     alignment));
  }

  /// Closes the temp file and renames it over `path`. IoError when the
  /// open, any write, the close or the rename failed.
  Status Commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_;
  int64_t written_ = 0;
  bool failed_ = false;
  bool committed_ = false;
};

}  // namespace umgad

#endif  // UMGAD_COMMON_BYTE_IO_H_
