#include "posixfs/vfs.hpp"

#include <vector>

namespace fanstore::posixfs {

std::string normalize_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    const auto part = path.substr(i, j - i);
    if (!part.empty() && part != ".") {
      if (part == "..") return {};
      parts.push_back(part);
    }
    i = j;
  }
  std::string out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    if (k > 0) out += '/';
    out += parts[k];
  }
  return out;
}

std::int64_t Vfs::pread(int fd, MutByteView buf, std::uint64_t offset) {
  const std::int64_t saved = lseek(fd, 0, Whence::kCur);
  if (saved < 0) return saved;
  const std::int64_t pos =
      lseek(fd, static_cast<std::int64_t>(offset), Whence::kSet);
  if (pos < 0) return pos;
  const std::int64_t n = read(fd, buf);
  lseek(fd, saved, Whence::kSet);
  return n;
}

int Vfs::open_nowait(std::string_view) { return -EAGAIN; }

int Vfs::stat_nowait(std::string_view, format::FileStat*) { return -EAGAIN; }

int Vfs::opendir_nowait(std::string_view) { return -EAGAIN; }

bool append_to_end(Vfs& fs, int fd, Bytes* out) {
  // One growth by the remaining size, taken from lseek (no stat, so no
  // metadata lookup); the chunked loop below then only confirms EOF, or
  // picks up whatever a file that grew meanwhile (or a Vfs without
  // kEnd) still has to give.
  const std::size_t base = out->size();
  const std::int64_t pos = fs.lseek(fd, 0, Whence::kCur);
  const std::int64_t end = pos >= 0 ? fs.lseek(fd, 0, Whence::kEnd) : -1;
  if (end >= 0) {
    if (fs.lseek(fd, pos, Whence::kSet) != pos) return false;
    if (end > pos) out->resize(base + static_cast<std::size_t>(end - pos));
  }
  std::size_t got = base;
  while (got < out->size()) {
    const std::int64_t n =
        fs.read(fd, MutByteView{out->data() + got, out->size() - got});
    if (n < 0) return false;
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  out->resize(got);
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const std::int64_t n = fs.read(fd, MutByteView{chunk, sizeof(chunk)});
    if (n < 0) return false;
    if (n == 0) return true;
    out->insert(out->end(), chunk, chunk + n);
  }
}

std::optional<Bytes> read_to_end(Vfs& fs, int fd) {
  Bytes out;
  if (!append_to_end(fs, fd, &out)) return std::nullopt;
  return out;
}

std::optional<Bytes> read_file(Vfs& fs, std::string_view path) {
  const int fd = fs.open(path, OpenMode::kRead);
  if (fd < 0) return std::nullopt;
  auto out = read_to_end(fs, fd);
  fs.close(fd);
  return out;
}

int write_file(Vfs& fs, std::string_view path, ByteView data) {
  const int fd = fs.open(path, OpenMode::kWrite);
  if (fd < 0) return fd;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::int64_t n = fs.write(fd, data.subspan(off));
    if (n < 0) {
      fs.close(fd);
      return static_cast<int>(n);
    }
    off += static_cast<std::size_t>(n);
  }
  return fs.close(fd);
}

}  // namespace fanstore::posixfs
