// excess_server — the networked EXCESS query server.
//
//   excess_server [--port N] [--host A.B.C.D] [--workers N]
//                 [--load file] [--journal file] [--init file]
//                 [--durability sync|group|async]
//                 [--checkpoint file [--checkpoint-interval-ms N]]
//                 [--replica-of host:port]
//
// Serves the wire protocol of docs/server_protocol.md with one thread
// and one server-side Session per connection; at most --workers
// requests execute at once. SIGINT / SIGTERM shut down gracefully: stop
// accepting, drain in-flight queries, flush and exit 0. A malformed
// flag exits 2 with the usage text.
//
// With --replica-of the server is a journal-shipping read replica: it
// bootstraps its database from the primary (WAL replay or a snapshot
// image), keeps tailing the primary's WAL in the background, and serves
// read-only queries; writes are rejected. --journal/--load/--init are
// primary-side options and are rejected in replica mode.

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "excess/database.h"
#include "server/replica.h"
#include "server/server.h"
#include "wal/durability.h"

namespace {

// Self-pipe woken by the signal handler; main blocks on it.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

/// Parses all of `text` as a decimal integer in [lo, hi].
bool ParseInt(const char* text, long lo, long hi, long* out) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--host A.B.C.D] [--workers N]"
               " [--load file] [--journal file] [--init file]"
               " [--durability sync|group|async]"
               " [--checkpoint file [--checkpoint-interval-ms N]]"
               " [--replica-of host:port]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  exodus::server::ServerOptions options;
  options.port = 4077;
  std::string load_path;
  std::string journal_path;
  std::string init_path;
  std::string checkpoint_path;
  std::string replica_of;
  int checkpoint_interval_ms = 30000;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    long n = 0;
    if (arg == "--port" && (v = next()) && ParseInt(v, 0, 65535, &n)) {
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--host" && (v = next())) {
      options.host = v;
    } else if (arg == "--workers" && (v = next()) &&
               ParseInt(v, 1, LONG_MAX, &n)) {
      options.workers = static_cast<size_t>(n);
    } else if (arg == "--load" && (v = next())) {
      load_path = v;
    } else if (arg == "--journal" && (v = next())) {
      journal_path = v;
    } else if (arg == "--init" && (v = next())) {
      init_path = v;
    } else if (arg == "--durability" && (v = next())) {
      exodus::wal::Durability durability;
      if (!exodus::wal::ParseDurability(v, &durability)) {
        std::cerr << "unknown durability mode '" << v
                  << "' (sync|group|async)\n";
        return 2;
      }
      // Sessions seed their options from the environment at creation,
      // so the flag reaches every connection's session.
      ::setenv("EXODUS_DURABILITY", v, 1);
    } else if (arg == "--checkpoint" && (v = next())) {
      checkpoint_path = v;
    } else if (arg == "--checkpoint-interval-ms" && (v = next()) &&
               ParseInt(v, 1, INT_MAX, &n)) {
      checkpoint_interval_ms = static_cast<int>(n);
    } else if (arg == "--replica-of" && (v = next())) {
      replica_of = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!replica_of.empty() &&
      (!load_path.empty() || !journal_path.empty() || !init_path.empty() ||
       !checkpoint_path.empty())) {
    std::cerr << "--replica-of cannot be combined with --load, --journal, "
                 "--init or --checkpoint\n";
    return 2;
  }

  std::unique_ptr<exodus::Database> db;
  std::unique_ptr<exodus::server::Replicator> replicator;
  exodus::Database* serving_db = nullptr;
  if (!replica_of.empty()) {
    exodus::server::ReplicatorOptions ropts;
    auto st = exodus::server::ParseHostPort(replica_of, &ropts.primary_host,
                                            &ropts.primary_port);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
    auto rep = exodus::server::Replicator::Bootstrap(ropts);
    if (!rep.ok()) {
      std::cerr << "cannot bootstrap replica of " << replica_of << ": "
                << rep.status().ToString() << "\n";
      return 1;
    }
    replicator = std::move(*rep);
    serving_db = replicator->database();
  } else {
    if (!journal_path.empty()) {
      // Recover (not plain EnableJournal): a restart after a crash
      // loads the checkpoint, if any, and replays whatever the
      // previous incarnation made durable past it. A --checkpoint from
      // a previous incarnation is a recovery base too — the WAL below
      // its cut has been truncated.
      std::string recover_image = load_path;
      if (recover_image.empty() && !checkpoint_path.empty()) {
        std::ifstream probe(checkpoint_path);
        if (probe) recover_image = checkpoint_path;
      }
      auto recovered = exodus::Database::Recover(recover_image, journal_path);
      if (!recovered.ok()) {
        std::cerr << "cannot recover journal '" << journal_path
                  << "': " << recovered.status().ToString() << "\n";
        return 1;
      }
      db = std::move(*recovered);
    } else if (!load_path.empty()) {
      auto loaded = exodus::Database::Load(load_path);
      if (!loaded.ok()) {
        std::cerr << "cannot load '" << load_path
                  << "': " << loaded.status().ToString() << "\n";
        return 1;
      }
      db = std::move(*loaded);
    } else {
      db = std::make_unique<exodus::Database>();
    }
    if (!init_path.empty()) {
      std::ifstream in(init_path);
      if (!in) {
        std::cerr << "cannot read init script '" << init_path << "'\n";
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      auto r = db->ExecuteAll(buf.str());
      if (!r.ok()) {
        std::cerr << "init script failed: " << r.status().ToString() << "\n";
        return 1;
      }
    }
    if (!checkpoint_path.empty()) {
      if (journal_path.empty()) {
        std::cerr << "--checkpoint requires --journal\n";
        return 2;
      }
      db->StartAutoCheckpoint(checkpoint_path, checkpoint_interval_ms);
    }
    serving_db = db.get();
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  exodus::server::Server server(serving_db, options);
  auto st = server.Start();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (replicator != nullptr) {
    replicator->Start();
    std::cout << "replicating from " << replica_of << " (read-only)\n";
  }
  std::cout << "excess_server listening on " << options.host << ":"
            << server.port() << " with " << options.workers
            << " worker(s)" << std::endl;

  // Block until SIGINT/SIGTERM.
  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "\nshutting down (draining in-flight queries)...\n";
  if (replicator != nullptr) replicator->Stop();
  server.Stop();
  const auto& c = server.counters();
  std::cout << "served " << c.queries_total->value() << " quer(ies) on "
            << c.connections_total->value() << " connection(s), "
            << c.errors_total->value() << " error(s)\n";
  return 0;
}
