// In-memory filesystem implementing the Vfs interface.
//
// Serves three roles in the reproduction: (1) the RAM-disk / SSD contents in
// tests, (2) the "shared file system" the prep tool writes partitions into,
// and (3) the write-back target for FanStore output files. Directories are
// created implicitly by writing files beneath them.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "posixfs/vfs.hpp"
#include "util/sync.hpp"

namespace fanstore::posixfs {

class MemVfs final : public Vfs {
 public:
  int open(std::string_view path, OpenMode mode) override;
  int close(int fd) override;
  std::int64_t read(int fd, MutByteView buf) override;
  std::int64_t write(int fd, ByteView buf) override;
  std::int64_t lseek(int fd, std::int64_t offset, Whence whence) override;
  int stat(std::string_view path, format::FileStat* out) override;
  int opendir(std::string_view path) override;
  std::optional<Dirent> readdir(int dir_handle) override;
  int closedir(int dir_handle) override;
  // Every call here takes only the one in-memory table lock, so the
  // no-wait probes always answer.
  int open_nowait(std::string_view path) override {
    return open(path, OpenMode::kRead);
  }
  int stat_nowait(std::string_view path, format::FileStat* out) override {
    return stat(path, out);
  }
  int opendir_nowait(std::string_view path) override { return opendir(path); }

  /// Creates an (empty) directory entry explicitly.
  void mkdir(std::string_view path);

  /// Direct byte access for tests and loaders; nullopt if absent.
  std::optional<Bytes> slurp(std::string_view path) const;

  /// Lists all file paths (sorted), optionally below a prefix.
  std::vector<std::string> list_files(std::string_view prefix = "") const;

  std::size_t file_count() const;
  std::size_t total_bytes() const;

 private:
  struct File {
    std::shared_ptr<Bytes> data;
    std::uint64_t mtime_ns = 0;
  };
  struct OpenFile {
    std::string path;
    OpenMode mode;
    std::shared_ptr<Bytes> data;  // snapshot for readers, buffer for writers
    std::int64_t offset = 0;
  };
  struct OpenDir {
    std::vector<Dirent> entries;
    std::size_t next = 0;
  };

  bool dir_exists_locked(const std::string& path) const REQUIRES(mu_);

  mutable sync::Mutex mu_{"mem_vfs.mu"};
  std::map<std::string, File> files_ GUARDED_BY(mu_);
  std::set<std::string> dirs_ GUARDED_BY(mu_);
  std::map<int, OpenFile> open_files_ GUARDED_BY(mu_);
  std::map<int, OpenDir> open_dirs_ GUARDED_BY(mu_);
  int next_fd_ GUARDED_BY(mu_) = 3;  // POSIX-style: 0..2 reserved
  int next_dir_ GUARDED_BY(mu_) = 1;
  std::uint64_t clock_ns_ GUARDED_BY(mu_) = 1;
};

}  // namespace fanstore::posixfs
