#ifndef UMGAD_COMMON_BYTE_IO_H_
#define UMGAD_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/result.h"
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

/// A file opened read-only and closed when this dies, with its stat size
/// at open.
class ReadOnlyFile {
 public:
  /// IoError when the file cannot be opened or stat'ed.
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile(ReadOnlyFile&& o) noexcept
      : path_(std::move(o.path_)), fd_(o.fd_), size_(o.size_) {
    o.fd_ = -1;
  }
  ReadOnlyFile& operator=(ReadOnlyFile&&) = delete;
  ~ReadOnlyFile();

  int fd() const { return fd_; }
  int64_t size() const { return size_; }

  /// Reads the `n` bytes at `offset` into `dst`; IoError when a read fails
  /// or the file ends first (it shrank since Open).
  Status ReadAt(int64_t offset, void* dst, int64_t n) const;

 private:
  ReadOnlyFile(std::string path, int fd, int64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  int64_t size_;
};

/// Bounds-checked cursor over a container's bytes: the one reader behind
/// every binary container, whether the bytes are in memory (a buffer or a
/// file mapping) or still in a file, which it then reads straight into
/// each destination. Every read is checked against the remaining byte
/// count first and fails with InvalidArgument naming `what`; element
/// counts are bounded by dividing the remaining bytes, never by
/// multiplying the count, so a hostile count cannot wrap past the end.
/// Reads copy out, so no offset needs any alignment.
class ByteReader {
 public:
  ByteReader(const unsigned char* base, int64_t size)
      : base_(base), size_(size) {}
  /// Reads the first file->size() bytes of `file`, which must outlive this.
  explicit ByteReader(const ReadOnlyFile* file)
      : file_(file), size_(file->size()) {}

  int64_t Remaining() const { return size_ - pos_; }

  template <typename T>
  Status Pod(T* value, const char* what) {
    if (Remaining() < static_cast<int64_t>(sizeof(T))) {
      return Status::InvalidArgument(StrFormat("truncated %s", what));
    }
    return Copy(value, sizeof(T));
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

  /// Copies `count` elements into `dst`.
  template <typename T>
  Status Read(T* dst, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(Require<T>(count, what));
    return Copy(dst, count * static_cast<int64_t>(sizeof(T)));
  }

  /// A u32 length prefix, then that many bytes; lengths above `max_len`
  /// fail as oversized before any byte is read.
  Status String(std::string* s, int64_t max_len, const char* what) {
    uint32_t len = 0;
    UMGAD_RETURN_IF_ERROR(Pod(&len, what));
    if (static_cast<int64_t>(len) > max_len) {
      return Status::InvalidArgument(StrFormat("oversized %s", what));
    }
    UMGAD_RETURN_IF_ERROR(Require<char>(len, what));
    s->resize(len);
    return Copy(&(*s)[0], len);
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

  /// Replaces `out` with the next `count` elements; the count is checked
  /// against the remaining bytes before anything is allocated.
  template <typename T>
  Status ReadVector(std::vector<T>* out, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(Require<T>(count, what));
    out->resize(static_cast<size_t>(count));
    return Read(out->data(), count, what);
  }

 private:
  /// Copies the next `n` bytes (already bounds-checked) into `dst`.
  Status Copy(void* dst, int64_t n) {
    if (n == 0) return Status::OK();
    if (file_ != nullptr) {
      UMGAD_RETURN_IF_ERROR(file_->ReadAt(pos_, dst, n));
    } else {
      std::memcpy(dst, base_ + pos_, static_cast<size_t>(n));
    }
    pos_ += n;
    return Status::OK();
  }

  const unsigned char* base_ = nullptr;
  const ReadOnlyFile* file_ = nullptr;
  int64_t size_;
  int64_t pos_ = 0;
};

/// A whole file read into one owned buffer, sized from the file's stat size
/// (never from anything inside the file).
class FileImage {
 public:
  /// IoError when the file cannot be opened, stat'ed or fully read.
  static Result<FileImage> Read(const std::string& path);

  const unsigned char* data() const { return bytes_.get(); }
  int64_t size() const { return size_; }

 private:
  FileImage(std::unique_ptr<unsigned char[]> bytes, int64_t size)
      : bytes_(std::move(bytes)), size_(size) {}

  std::unique_ptr<unsigned char[]> bytes_;
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
