#include "common/byte_io.h"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace umgad {

Result<std::shared_ptr<const FileImage>> FileImage::Read(
    const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const int64_t size = static_cast<int64_t>(st.st_size);
  const int64_t word_count = (size + 7) / 8;
  std::unique_ptr<int64_t[]> words(new int64_t[word_count]);
  // The read overwrites every byte below `size`; zero the padding after it.
  if (word_count > 0) words[word_count - 1] = 0;
  unsigned char* dst = reinterpret_cast<unsigned char*>(words.get());
  int64_t done = 0;
  while (done < size) {
    const ssize_t got =
        read(fd, dst + done, static_cast<size_t>(size - done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    done += got;
  }
  close(fd);
  if (done != size) {
    return Status::IoError(StrFormat(
        "read of %s stopped at byte %lld of %lld", path.c_str(),
        static_cast<long long>(done), static_cast<long long>(size)));
  }
  return std::shared_ptr<const FileImage>(
      new FileImage(std::move(words), size));
}

ByteWriter::ByteWriter(const std::string& path)
    : path_(path),
      tmp_path_(StrFormat("%s.tmp.%ld", path.c_str(),
                          static_cast<long>(getpid()))),
      file_(std::fopen(tmp_path_.c_str(), "wb")) {}

ByteWriter::~ByteWriter() {
  if (file_ != nullptr) std::fclose(file_);
  if (!committed_) std::remove(tmp_path_.c_str());
}

void ByteWriter::Bytes(const void* data, size_t n) {
  if (n > 0 && file_ != nullptr && std::fwrite(data, 1, n, file_) != n) {
    failed_ = true;
  }
  written_ += static_cast<int64_t>(n);
}

Status ByteWriter::Commit() {
  if (file_ == nullptr) {
    return Status::IoError("cannot open " + path_ + " for writing");
  }
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (failed_ || !closed) {
    return Status::IoError("write to " + path_ + " failed");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IoError("cannot replace " + path_);
  }
  committed_ = true;
  return Status::OK();
}

}  // namespace umgad
