#include "common/byte_io.h"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace umgad {

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  return ReadOnlyFile(path, fd, static_cast<int64_t>(st.st_size));
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) close(fd_);
}

Status ReadOnlyFile::ReadAt(int64_t offset, void* dst, int64_t n) const {
  unsigned char* out = static_cast<unsigned char*>(dst);
  int64_t done = 0;
  while (done < n) {
    const ssize_t got = pread(fd_, out + done, static_cast<size_t>(n - done),
                              static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return Status::IoError(StrFormat(
          "read of %s stopped at byte %lld of %lld", path_.c_str(),
          static_cast<long long>(offset + done),
          static_cast<long long>(offset + n)));
    }
    done += got;
  }
  return Status::OK();
}

Result<FileImage> FileImage::Read(const std::string& path) {
  UMGAD_ASSIGN_OR_RETURN(const ReadOnlyFile file, ReadOnlyFile::Open(path));
  std::unique_ptr<unsigned char[]> bytes(
      new unsigned char[static_cast<size_t>(file.size())]);
  UMGAD_RETURN_IF_ERROR(file.ReadAt(0, bytes.get(), file.size()));
  return FileImage(std::move(bytes), file.size());
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
