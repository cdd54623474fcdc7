//===- AtpStore.cpp - Persistent on-disk ATP cache store ------------------------===//

#include "solver/AtpStore.h"

#include "support/Framing.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pec;

namespace {

// File header: 8-byte magic + file-format version + key-schema version.
constexpr char Magic[8] = {'P', 'E', 'C', 'A', 'T', 'P', 'C', '\n'};
/// Version 3: a record's WorkDelta has 10 fields (version 2 had 11).
constexpr uint32_t FileFormatVersion = 3;
constexpr size_t HeaderSize = sizeof(Magic) + 4 + 4;

std::string renderHeader() {
  std::string H(Magic, sizeof(Magic));
  framing::appendU32(H, FileFormatVersion);
  framing::appendU32(H, AtpKeySchemaVersion);
  return H;
}

/// True when \p Buffer starts with a current-version header.
bool headerOk(const std::string &Buffer) {
  if (Buffer.size() < HeaderSize)
    return false;
  if (std::memcmp(Buffer.data(), Magic, sizeof(Magic)) != 0)
    return false;
  size_t At = sizeof(Magic);
  uint32_t FileVersion = 0, KeySchema = 0;
  framing::readU32(Buffer, At, FileVersion);
  framing::readU32(Buffer, At, KeySchema);
  return FileVersion == FileFormatVersion && KeySchema == AtpKeySchemaVersion;
}

std::string encodeEntry(const std::string &Key, bool Result,
                        const AtpCache::WorkDelta &D) {
  std::string P;
  P.reserve(1 + 10 * 8 + Key.size());
  P.push_back(Result ? 1 : 0);
  framing::appendU64(P, D.TheoryChecks);
  framing::appendU64(P, D.TheoryConflicts);
  framing::appendU64(P, D.TheoryPropagations);
  framing::appendU64(P, D.TheoryPops);
  framing::appendU64(P, D.SatConflicts);
  framing::appendU64(P, D.SatDecisions);
  framing::appendU64(P, D.Propagations);
  framing::appendU64(P, D.Restarts);
  framing::appendU64(P, D.LearnedClauses);
  framing::appendU64(P, D.DeletedClauses);
  P.append(Key);
  return P;
}

bool decodeEntry(std::string_view Payload, AtpStoreEntry &Out) {
  constexpr size_t Fixed = 1 + 10 * 8;
  if (Payload.size() < Fixed)
    return false;
  Out.Result = Payload[0] != 0;
  size_t At = 1;
  AtpCache::WorkDelta &D = Out.Delta;
  for (uint64_t *Field :
       {&D.TheoryChecks, &D.TheoryConflicts, &D.TheoryPropagations,
        &D.TheoryPops, &D.SatConflicts, &D.SatDecisions, &D.Propagations,
        &D.Restarts, &D.LearnedClauses, &D.DeletedClauses})
    framing::readU64(Payload, At, *Field);
  Out.Key.assign(Payload.substr(Fixed));
  return !Out.Key.empty();
}

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Truncates \p Path to a fresh header (used both to create new files and
/// to reset stale or torn ones). Returns false on I/O failure.
bool resetFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  std::string H = renderHeader();
  bool Ok = writeAll(Fd, H.data(), H.size()) && ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
}

void setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
}

} // namespace

AtpStore::AtpStore(std::string Dir, size_t FsyncBatch)
    : Dir(std::move(Dir)), FsyncBatch(FsyncBatch ? FsyncBatch : 1) {}

AtpStore::~AtpStore() {
  flush();
  if (JournalFd >= 0)
    ::close(JournalFd);
}

bool AtpStore::loadFile(const std::string &Path, bool IsJournal,
                        const std::function<void(AtpStoreEntry)> &Consume,
                        std::string *Error) {
  std::string Buffer;
  if (!readWholeFile(Path, Buffer) || Buffer.empty())
    return resetFile(Path) ||
           (setError(Error, "cannot create " + Path), false);
  if (!headerOk(Buffer)) {
    // Stale key schema (or foreign bytes): discard, never merge.
    Info.SchemaMismatch = true;
    return resetFile(Path) || (setError(Error, "cannot reset " + Path), false);
  }
  std::string_view Body(Buffer.data() + HeaderSize,
                        Buffer.size() - HeaderSize);
  framing::RecordReader Reader(Body);
  std::string_view Payload;
  while (Reader.next(Payload)) {
    AtpStoreEntry E;
    if (!decodeEntry(Payload, E))
      continue; // Framed but malformed payload: skip, keep reading.
    (IsJournal ? Info.JournalEntries : Info.SnapshotEntries) += 1;
    Consume(std::move(E));
  }
  if (!Reader.clean()) {
    // Torn or corrupt tail. For the journal that is the expected crash
    // shape: truncate to the last good record so appends resume from a
    // consistent boundary. A snapshot is written atomically, so damage
    // there also just drops the tail (entries before it are still good).
    Info.DroppedBytes += Buffer.size() - (HeaderSize + Reader.offset());
    if (IsJournal &&
        ::truncate(Path.c_str(),
                   static_cast<off_t>(HeaderSize + Reader.offset())) != 0) {
      setError(Error, "cannot truncate torn journal " + Path);
      return false;
    }
  }
  return true;
}

bool AtpStore::open(const std::function<void(AtpStoreEntry)> &Consume,
                    std::string *Error) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    setError(Error, "cannot create cache dir " + Dir + ": " + Ec.message());
    return false;
  }
  std::string Snapshot = Dir + "/" + SnapshotFile;
  std::string Journal = Dir + "/" + JournalFile;
  // Load the snapshot first so journal records (newer) win upstream. A
  // schema mismatch in either file resets both: they are one store.
  if (!loadFile(Snapshot, /*IsJournal=*/false, Consume, Error))
    return false;
  if (Info.SchemaMismatch) {
    Info.SnapshotEntries = Info.JournalEntries = 0;
    if (!resetFile(Journal)) {
      setError(Error, "cannot reset " + Journal);
      return false;
    }
  } else if (!loadFile(Journal, /*IsJournal=*/true, Consume, Error)) {
    return false;
  }
  if (Info.SchemaMismatch) {
    // The journal header may also have been stale; ensure both are fresh.
    if (!resetFile(Snapshot) || !resetFile(Journal)) {
      setError(Error, "cannot reset stale store in " + Dir);
      return false;
    }
  }
  JournalFd = ::open(Journal.c_str(), O_WRONLY | O_APPEND, 0644);
  if (JournalFd < 0) {
    setError(Error, "cannot open journal " + Journal + " for append");
    return false;
  }
  return true;
}

bool AtpStore::append(const std::string &Key, bool Result,
                      const AtpCache::WorkDelta &Delta) {
  std::string Framed;
  framing::appendRecord(Framed, encodeEntry(Key, Result, Delta));
  std::lock_guard<std::mutex> Lock(Mutex);
  if (JournalFd < 0)
    return false;
  if (!writeAll(JournalFd, Framed.data(), Framed.size()))
    return false;
  if (++Unsynced >= FsyncBatch) {
    ::fsync(JournalFd);
    Unsynced = 0;
  }
  return true;
}

void AtpStore::flush() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (JournalFd >= 0 && Unsynced > 0) {
    ::fsync(JournalFd);
    Unsynced = 0;
  }
}

bool AtpStore::compact(const std::vector<AtpStoreEntry> &Entries,
                       std::string *Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Snapshot = Dir + "/" + SnapshotFile;
  std::string Tmp = Snapshot + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    setError(Error, "cannot create " + Tmp);
    return false;
  }
  std::string Buffer = renderHeader();
  for (const AtpStoreEntry &E : Entries) {
    framing::appendRecord(Buffer, encodeEntry(E.Key, E.Result, E.Delta));
    if (Buffer.size() >= 1 << 20) {
      if (!writeAll(Fd, Buffer.data(), Buffer.size())) {
        ::close(Fd);
        setError(Error, "write failed on " + Tmp);
        return false;
      }
      Buffer.clear();
    }
  }
  bool Ok = writeAll(Fd, Buffer.data(), Buffer.size()) && ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok || ::rename(Tmp.c_str(), Snapshot.c_str()) != 0) {
    setError(Error, "cannot publish snapshot " + Snapshot);
    return false;
  }
  // fsync the directory so the rename itself is durable.
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  // Everything journaled so far is now in the snapshot: reset the
  // journal. A crash right before this leaves harmless duplicates.
  if (JournalFd >= 0)
    ::close(JournalFd);
  std::string Journal = Dir + "/" + JournalFile;
  if (!resetFile(Journal)) {
    JournalFd = -1;
    setError(Error, "cannot reset journal " + Journal);
    return false;
  }
  JournalFd = ::open(Journal.c_str(), O_WRONLY | O_APPEND, 0644);
  Unsynced = 0;
  if (JournalFd < 0) {
    setError(Error, "cannot reopen journal " + Journal);
    return false;
  }
  return true;
}
