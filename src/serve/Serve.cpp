//===- Serve.cpp - The pec proof daemon ------------------------------------------===//

#include "serve/Serve.h"

#include "engine/Apply.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "pec/Explain.h"
#include "pec/Pec.h"
#include "pec/Report.h"
#include "solver/AtpCache.h"
#include "support/Escape.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pec;
using namespace pec::serve;

namespace {

/// Refuse absurd frames before allocating: a rules file measured in
/// hundreds of megabytes is a protocol error, not a workload.
constexpr uint32_t MaxFrameBytes = 64u << 20;

bool writeAllFd(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAllFd(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    ssize_t N = ::read(Fd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // Peer hung up mid-frame (or before one).
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

void failWith(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
}

//===----------------------------------------------------------------------===//
// Reply rendering (tiny hand-rolled JSON, mirroring Report.cpp's idiom)
//===----------------------------------------------------------------------===//

void appendKey(std::string &Out, const char *Key) {
  Out += '"';
  Out += Key;
  Out += "\":";
}

void appendString(std::string &Out, const char *Key, const std::string &V) {
  appendKey(Out, Key);
  Out += '"';
  Out += escapeJson(V);
  Out += '"';
}

void appendUint(std::string &Out, const char *Key, uint64_t V) {
  appendKey(Out, Key);
  Out += std::to_string(V);
}

void appendBool(std::string &Out, const char *Key, bool V) {
  appendKey(Out, Key);
  Out += V ? "true" : "false";
}

std::string errorReply(const std::string &Message) {
  std::string Out = "{";
  appendBool(Out, "ok", false);
  Out += ',';
  appendString(Out, "error", Message);
  Out += '}';
  return Out;
}

//===----------------------------------------------------------------------===//
// Server state
//===----------------------------------------------------------------------===//

struct Server {
  explicit Server(const ServeOptions &Opts)
      : Opts(Opts), Pool(Opts.Jobs ? Opts.Jobs : ThreadPool::hardwareJobs()) {}

  ServeOptions Opts;
  AtpCache Cache;
  ThreadPool Pool;
  int ListenFd = -1;

  std::atomic<bool> Stop{false};
  /// Work-carrying requests currently admitted (the admission gate).
  std::atomic<uint64_t> InFlight{0};
  std::atomic<uint64_t> Requests{0};  ///< All requests, any verb.
  std::atomic<uint64_t> Admitted{0};  ///< Work requests admitted.
  std::atomic<uint64_t> Rejected{0};  ///< Work requests answered overloaded.
  /// Serializes periodic checkpoints (checkpoint() itself is safe to race
  /// with lookups, but back-to-back compactions would just burn I/O).
  std::mutex CheckpointMutex;

  bool persistent() const { return Cache.store() != nullptr; }

  PecOptions proveOptions() {
    PecOptions Options;
    Options.Cache = &Cache;
    Options.Atp.QueryBudgetMs = Opts.QueryBudgetMs;
    return Options;
  }

  /// Count-based periodic checkpoint: every CheckpointEvery-th admitted
  /// work request compacts the store after finishing its work.
  void maybeCheckpoint(uint64_t AdmissionIndex) {
    if (!persistent() || !Opts.CheckpointEvery ||
        AdmissionIndex % Opts.CheckpointEvery != 0)
      return;
    std::lock_guard<std::mutex> Lock(CheckpointMutex);
    std::string Error;
    if (!Cache.checkpoint(&Error))
      log::warn("serve.checkpoint_failed").str("error", Error);
  }
};

/// RAII admission slot. `Admitted` false means the request must be
/// answered `overloaded` without doing its work.
struct AdmissionSlot {
  explicit AdmissionSlot(Server &S) : S(S) {
    // fetch_add-then-test keeps the gate exact under concurrency: at most
    // MaxQueue holders see a prior count below the bound.
    Admitted = S.InFlight.fetch_add(1) < S.Opts.MaxQueue;
    if (!Admitted) {
      S.InFlight.fetch_sub(1);
      S.Rejected.fetch_add(1);
    } else {
      Index = S.Admitted.fetch_add(1) + 1;
    }
  }
  ~AdmissionSlot() {
    if (Admitted)
      S.InFlight.fetch_sub(1);
  }
  Server &S;
  bool Admitted;
  uint64_t Index = 0;
};

//===----------------------------------------------------------------------===//
// Verb handlers
//===----------------------------------------------------------------------===//

std::string handleProve(Server &S, const json::ValuePtr &Request) {
  json::ValuePtr Rules = Request->get("rules");
  if (!Rules || !Rules->isString())
    return errorReply("prove: missing string field 'rules'");
  Expected<RuleFile> File = parseRuleFile(Rules->stringValue());
  if (!File)
    return errorReply("parse error: " + File.error().str());

  PecOptions Options = S.proveOptions();
  Options.UserFacts = File->Facts;

  // Rule-level fan-out onto the shared pool; the connection thread helps
  // run tasks while it waits, so a 1-thread pool still makes progress.
  std::vector<PecResult> Results(File->Rules.size());
  {
    TaskGroup Group(S.Pool);
    for (size_t I = 0; I < File->Rules.size(); ++I)
      Group.spawn([&File, &Results, &Options, I] {
        Results[I] = proveRule(File->Rules[I], Options);
      });
  }

  uint64_t Proved = 0;
  std::string Out = "{";
  appendBool(Out, "ok", true);
  Out += ',';
  appendKey(Out, "rules");
  Out += '[';
  for (size_t I = 0; I < Results.size(); ++I) {
    const PecResult &R = Results[I];
    Proved += R.Proved ? 1 : 0;
    if (I)
      Out += ',';
    Out += '{';
    appendString(Out, "name", File->Rules[I].Name);
    Out += ',';
    appendBool(Out, "proved", R.Proved);
    Out += ',';
    appendString(Out, "method", R.UsedPermute ? "permute" : "bisimulation");
    Out += ',';
    appendString(Out, "failure_reason", failureKindName(R.Kind));
    Out += ',';
    appendString(Out, "failure_detail", R.FailureReason);
    Out += ',';
    appendUint(Out, "atp_queries", R.AtpQueries);
    Out += '}';
  }
  Out += "],";
  appendUint(Out, "proved", Proved);
  Out += ',';
  appendUint(Out, "failed", Results.size() - Proved);
  Out += '}';
  return Out;
}

std::string handleApply(Server &S, const json::ValuePtr &Request) {
  json::ValuePtr Rules = Request->get("rules");
  json::ValuePtr Program = Request->get("program");
  if (!Rules || !Rules->isString() || !Program || !Program->isString())
    return errorReply("apply: missing string fields 'rules'/'program'");
  json::ValuePtr FixpointV = Request->get("fixpoint");
  bool Fixpoint = FixpointV && FixpointV->isBool() && FixpointV->boolValue();

  Expected<RuleFile> File = parseRuleFile(Rules->stringValue());
  if (!File)
    return errorReply("rule parse error: " + File.error().str());
  Expected<StmtPtr> Parsed = parseProgram(Program->stringValue());
  if (!Parsed)
    return errorReply("program parse error: " + Parsed.error().str());

  PecOptions ProveOptions = S.proveOptions();
  ProveOptions.UserFacts = File->Facts;

  // As in `pec apply`: a rule must be proved before it is run. With the
  // shared cache the re-proof of an already-served rule is all hits.
  StmtPtr Current = *Parsed;
  uint64_t Applications = 0;
  bool Any = true;
  int Rounds = 0;
  while (Any && Rounds++ < (Fixpoint ? 64 : 1)) {
    Any = false;
    for (const Rule &R : File->Rules) {
      PecResult Proof = proveRule(R, ProveOptions);
      if (!Proof.Proved)
        return errorReply("refusing to apply unproven rule '" + R.Name +
                          "': " + Proof.FailureReason);
      EngineOptions RuleOptions;
      RuleOptions.RequiredDeadVars = Proof.RequiredDeadVars;
      bool Changed = false;
      Current = applyRule(Current, R, pickFirst, RuleOptions, Changed);
      Any |= Changed;
      Applications += Changed ? 1 : 0;
    }
  }

  std::string Out = "{";
  appendBool(Out, "ok", true);
  Out += ',';
  appendUint(Out, "applications", Applications);
  Out += ',';
  appendString(Out, "program", printStmt(Current));
  Out += '}';
  return Out;
}

std::string handleExplain(Server &S, const json::ValuePtr &Request) {
  json::ValuePtr Rules = Request->get("rules");
  if (!Rules || !Rules->isString())
    return errorReply("explain: missing string field 'rules'");
  Expected<RuleFile> File = parseRuleFile(Rules->stringValue());
  if (!File)
    return errorReply("parse error: " + File.error().str());

  PecOptions Options = S.proveOptions();
  Options.UserFacts = File->Facts;
  Options.Diagnose = true;

  std::vector<PecResult> Results(File->Rules.size());
  {
    TaskGroup Group(S.Pool);
    for (size_t I = 0; I < File->Rules.size(); ++I)
      Group.spawn([&File, &Results, &Options, I] {
        Results[I] = proveRule(File->Rules[I], Options);
      });
  }

  std::string Out = "{";
  appendBool(Out, "ok", true);
  Out += ',';
  appendKey(Out, "rules");
  Out += '[';
  for (size_t I = 0; I < Results.size(); ++I) {
    const PecResult &R = Results[I];
    if (I)
      Out += ',';
    Out += '{';
    appendString(Out, "name", File->Rules[I].Name);
    Out += ',';
    appendBool(Out, "proved", R.Proved);
    Out += ',';
    appendString(Out, "diagnosis",
                 R.Proved ? std::string()
                 : R.Diagnosis
                     ? renderDiagnosis(*R.Diagnosis, File->Rules[I].Name)
                     : R.FailureReason);
    Out += '}';
  }
  Out += "]}";
  return Out;
}

std::string handlePing(const json::ValuePtr &Request) {
  // Optional worker-side sleep: a deterministic load generator for the
  // admission-control tests (occupy a slot for as long as asked).
  json::ValuePtr Sleep = Request->get("sleep_ms");
  if (Sleep && Sleep->isNumber() && Sleep->numberValue() > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(Sleep->numberValue())));
  std::string Out = "{";
  appendBool(Out, "ok", true);
  Out += '}';
  return Out;
}

std::string handleStats(Server &S) {
  AtpCacheStats C = S.Cache.stats();
  std::string Out = "{";
  appendBool(Out, "ok", true);
  Out += ',';
  appendUint(Out, "requests", S.Requests.load());
  Out += ',';
  appendUint(Out, "admitted", S.Admitted.load());
  Out += ',';
  appendUint(Out, "rejected", S.Rejected.load());
  Out += ',';
  appendUint(Out, "in_flight", S.InFlight.load());
  Out += ',';
  appendUint(Out, "max_queue", S.Opts.MaxQueue);
  Out += ',';
  appendBool(Out, "persistent", S.persistent());
  Out += ',';
  appendKey(Out, "cache");
  Out += '{';
  appendUint(Out, "hits", C.Hits);
  Out += ',';
  appendUint(Out, "misses", C.Misses);
  Out += ',';
  appendUint(Out, "insertions", C.Insertions);
  Out += ',';
  appendUint(Out, "evictions", C.Evictions);
  Out += ',';
  appendUint(Out, "model_bypasses", C.ModelBypasses);
  Out += ',';
  appendUint(Out, "entries", C.Entries);
  Out += ',';
  appendUint(Out, "disk_hits", C.DiskHits);
  Out += ',';
  appendUint(Out, "disk_entries", C.DiskEntries);
  Out += ',';
  appendUint(Out, "waits", C.Waits);
  Out += ',';
  appendUint(Out, "load_ms", C.LoadMicros / 1000);
  Out += ',';
  appendUint(Out, "checkpoint_ms", C.CheckpointMicros / 1000);
  Out += "},";
  // The same human table `pec prove --cache-stats` prints, so daemon and
  // CLI read identically.
  appendString(Out, "table", renderCacheStatsTable(C));
  Out += '}';
  return Out;
}

/// Dispatches one parsed request. Returns the reply payload and sets
/// \p Shutdown for the shutdown verb.
std::string handleRequest(Server &S, const std::string &Payload,
                          bool &Shutdown) {
  S.Requests.fetch_add(1);
  std::string Error;
  json::ValuePtr Request = json::parse(Payload, &Error);
  if (!Request || !Request->isObject())
    return errorReply("bad request: " +
                      (Error.empty() ? "not a JSON object" : Error));
  json::ValuePtr Verb = Request->get("verb");
  if (!Verb || !Verb->isString())
    return errorReply("bad request: missing string field 'verb'");
  const std::string &V = Verb->stringValue();

  // Control plane first: observable and stoppable even at saturation.
  if (V == "stats")
    return handleStats(S);
  if (V == "shutdown") {
    Shutdown = true;
    std::string Out = "{";
    appendBool(Out, "ok", true);
    Out += '}';
    return Out;
  }

  bool Known =
      V == "prove" || V == "apply" || V == "explain" || V == "ping";
  if (!Known)
    return errorReply("unknown verb '" + V + "'");

  AdmissionSlot Slot(S);
  if (!Slot.Admitted)
    return errorReply("overloaded");

  // Span names must be string literals (trace::Span keeps the pointer).
  const char *SpanName = V == "prove"     ? "serve.prove"
                         : V == "apply"   ? "serve.apply"
                         : V == "explain" ? "serve.explain"
                                          : "serve.ping";
  trace::Span Span(SpanName);
  Span.attr("request", Slot.Index);
  auto Start = std::chrono::steady_clock::now();
  std::string Reply;
  if (V == "prove")
    Reply = handleProve(S, Request);
  else if (V == "apply")
    Reply = handleApply(S, Request);
  else if (V == "explain")
    Reply = handleExplain(S, Request);
  else
    Reply = handlePing(Request);
  uint64_t Micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  flight::noteSlowQuery("serve.request", Micros);

  S.maybeCheckpoint(Slot.Index);
  return Reply;
}

void serveConnection(Server &S, int Fd) {
  std::string Payload;
  while (!S.Stop.load()) {
    std::string Error;
    if (!recvFrame(Fd, Payload, &Error))
      break; // EOF (client done) or torn frame; either way, hang up.
    bool Shutdown = false;
    std::string Reply = handleRequest(S, Payload, Shutdown);
    if (!sendFrame(Fd, Reply))
      break;
    if (Shutdown) {
      S.Stop.store(true);
      // Unblock the accept loop; further connects are refused.
      ::shutdown(S.ListenFd, SHUT_RDWR);
      break;
    }
  }
  ::close(Fd);
}

} // namespace

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

bool pec::serve::sendFrame(int Fd, std::string_view Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Header[4] = {
      static_cast<unsigned char>(Len), static_cast<unsigned char>(Len >> 8),
      static_cast<unsigned char>(Len >> 16),
      static_cast<unsigned char>(Len >> 24)};
  return writeAllFd(Fd, Header, sizeof(Header)) &&
         writeAllFd(Fd, Payload.data(), Payload.size());
}

bool pec::serve::recvFrame(int Fd, std::string &Payload, std::string *Error) {
  unsigned char Header[4];
  if (!readAllFd(Fd, Header, sizeof(Header))) {
    failWith(Error, "connection closed");
    return false;
  }
  uint32_t Len = static_cast<uint32_t>(Header[0]) |
                 (static_cast<uint32_t>(Header[1]) << 8) |
                 (static_cast<uint32_t>(Header[2]) << 16) |
                 (static_cast<uint32_t>(Header[3]) << 24);
  if (Len > MaxFrameBytes) {
    failWith(Error, "frame length " + std::to_string(Len) +
                        " exceeds the protocol maximum");
    return false;
  }
  Payload.resize(Len);
  if (Len && !readAllFd(Fd, Payload.data(), Len)) {
    failWith(Error, "connection closed mid-frame");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

int pec::serve::runServer(const ServeOptions &Options) {
  Server S(Options);

  if (!Options.CacheDir.empty()) {
    std::string Error;
    if (!S.Cache.attachStore(Options.CacheDir, &Error))
      // Degrade to a memory-only daemon: proofs are unaffected.
      log::warn("serve.store_disabled").str("error", Error);
  }

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Options.SocketPath.empty() ||
      Options.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: bad socket path '%s'\n",
                 Options.SocketPath.c_str());
    return 2;
  }
  std::memcpy(Addr.sun_path, Options.SocketPath.c_str(),
              Options.SocketPath.size() + 1);

  S.ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S.ListenFd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(Options.SocketPath.c_str()); // Replace a stale socket file.
  if (::bind(S.ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(S.ListenFd, 64) != 0) {
    std::fprintf(stderr, "error: cannot listen on '%s': %s\n",
                 Options.SocketPath.c_str(), std::strerror(errno));
    ::close(S.ListenFd);
    return 1;
  }

  std::fprintf(stderr, "pec serve: listening on %s (%u pool threads, "
                       "queue bound %u%s)\n",
               Options.SocketPath.c_str(), S.Pool.threadCount(),
               Options.MaxQueue, S.persistent() ? ", persistent cache" : "");

  std::vector<std::thread> Connections;
  while (!S.Stop.load()) {
    int Fd = ::accept(S.ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // Listener shut down (shutdown verb) or fatal.
    }
    Connections.emplace_back(
        [&S, Fd] { serveConnection(S, Fd); });
  }
  for (std::thread &T : Connections)
    T.join();

  // Final checkpoint so the next daemon (or CLI run) loads one compact
  // snapshot instead of replaying the whole journal.
  if (S.persistent()) {
    std::string Error;
    if (!S.Cache.checkpoint(&Error))
      log::warn("serve.checkpoint_failed").str("error", Error);
  }

  ::close(S.ListenFd);
  ::unlink(Options.SocketPath.c_str());
  std::fprintf(stderr, "pec serve: shut down after %llu request(s)\n",
               static_cast<unsigned long long>(S.Requests.load()));
  return 0;
}

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

bool pec::serve::clientRequest(const std::string &SocketPath,
                               const std::string &RequestJson,
                               std::string &ReplyJson, std::string *Error) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    failWith(Error, "bad socket path '" + SocketPath + "'");
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    failWith(Error, std::string("socket: ") + std::strerror(errno));
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    failWith(Error, "cannot connect to '" + SocketPath +
                        "': " + std::strerror(errno));
    ::close(Fd);
    return false;
  }
  bool Ok = sendFrame(Fd, RequestJson) && recvFrame(Fd, ReplyJson, Error);
  if (!Ok && Error && Error->empty())
    failWith(Error, "request failed");
  ::close(Fd);
  return Ok;
}
