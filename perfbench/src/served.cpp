// The served workload: a spawned lfsc_serve with one Unix-socket peer,
// driven in a closed loop.
//
// Before anything is timed, the benchmark generates K slots of the paper
// world and renders them as protocol `task` lines into a stream file;
// slot t of the run replays rendered slot (t-1) mod K. For each slot
// the client writes the slot's task lines and `tick`, and waits for the
// tick reply before the next slot. One slot is timed from its first
// byte written to its tick reply read. The server writes a checkpoint
// generation every 50 slots into its own scratch directory.
//
// Correctness: every task must be acknowledged with `ok queued=` and
// every tick with `ok slot=`; the server's `stats` reward after the
// reward window and at the end must equal, bit for bit, an in-process
// SlotStepper run of the same learner over the same slots.
//
// The traced run waits for the last task acknowledgement before it
// writes `tick`, which splits the slot into serve.ingest (task lines
// parsed and queued) and serve.tick (the slot itself, plus any
// checkpoint write).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/paper_setup.h"
#include "harness/step_runner.h"
#include "lfsc/lfsc_policy.h"
#include "quality.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCheckpointEvery = 50;
/// Set-up rounds: kSetupRound probe servers are spawned at the start of
/// the timed session and after every kSetupEvery slots; setup_s is the
/// median of each round, averaged over the rounds.
constexpr int kSetupRound = 3;
constexpr int kSetupEvery = 500;
/// The learner seed lfsc_serve uses by default (its --seed flag).
constexpr std::uint64_t kServeLearnerSeed = 42;
constexpr auto kReplyTimeout = std::chrono::seconds(30);

// --- the rendered task stream ------------------------------------------

const char* resource_token(lfsc::ResourceType r) {
  switch (r) {
    case lfsc::ResourceType::kCpu:
      return "cpu";
    case lfsc::ResourceType::kGpu:
      return "gpu";
    case lfsc::ResourceType::kCpuGpu:
      return "cpugpu";
  }
  throw std::logic_error("unknown resource type");
}

struct RenderedSlot {
  std::size_t offset = 0;  ///< byte offset in the stream file
  std::size_t bytes = 0;
  std::size_t lines = 0;
  std::size_t edges = 0;
};

/// K generated slots, kept in memory for the in-process reference and
/// rendered once into a stream file for the wire.
class Stream {
 public:
  Stream(const lfsc::PaperSetup& world, int k, const std::string& path)
      : path_(path) {
    lfsc::Simulator sim = world.make_simulator();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::vector<std::vector<std::size_t>> cover;  // task -> (m, j) pairs
    std::string line;
    std::size_t offset = 0;
    for (int t = 1; t <= k; ++t) {
      slots_.push_back(sim.generate_slot(t));
      const lfsc::Slot& slot = slots_.back();
      cover.assign(slot.info.tasks.size(), {});
      for (std::size_t m = 0; m < slot.info.coverage.size(); ++m) {
        for (std::size_t j = 0; j < slot.info.coverage[m].size(); ++j) {
          const auto i = static_cast<std::size_t>(slot.info.coverage[m][j]);
          cover[i].push_back(m);
          cover[i].push_back(j);
        }
      }
      RenderedSlot r;
      r.offset = offset;
      for (std::size_t i = 0; i < slot.info.tasks.size(); ++i) {
        // An uncovered task has no protocol form and no effect on the
        // slot: no SCN can take it.
        if (cover[i].empty()) continue;
        const lfsc::Task& task = slot.info.tasks[i];
        char buf[128];
        std::snprintf(buf, sizeof buf, "task %d %.17g %.17g %s ", task.wd_id,
                      task.context.input_mbit, task.context.output_mbit,
                      resource_token(task.context.resource));
        line = buf;
        for (std::size_t e = 0; e < cover[i].size(); e += 2) {
          const std::size_t m = cover[i][e], j = cover[i][e + 1];
          std::snprintf(buf, sizeof buf, "%s%zu:%.17g:%.17g:%.17g",
                        e == 0 ? "" : ",", m, slot.real.u[m][j],
                        slot.real.v[m][j], slot.real.q[m][j]);
          line += buf;
          ++r.edges;
        }
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), f);
        r.bytes += line.size();
        ++r.lines;
      }
      offset += r.bytes;
      rendered_.push_back(r);
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) throw std::runtime_error("cannot read " + path);
  }
  ~Stream() { ::close(fd_); }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  const RenderedSlot& rendered(int t) const { return rendered_[index(t)]; }
  const lfsc::Slot& slot(int t) const { return slots_[index(t)]; }

  /// Reads slot t's task lines from the stream file into `out`.
  void read(int t, std::string& out) const {
    const RenderedSlot& r = rendered(t);
    out.resize(r.bytes);
    std::size_t done = 0;
    while (done < r.bytes) {
      const ssize_t n =
          ::pread(fd_, out.data() + done, r.bytes - done,
                  static_cast<off_t>(r.offset + done));
      if (n <= 0) throw std::runtime_error("short read of " + path_);
      done += static_cast<std::size_t>(n);
    }
  }

 private:
  std::size_t index(int t) const {
    return static_cast<std::size_t>(t - 1) % slots_.size();
  }

  std::string path_;
  std::vector<lfsc::Slot> slots_;
  std::vector<RenderedSlot> rendered_;
  int fd_ = -1;
};

/// Replays the stream's slots in process (the reference run's source).
class ReplaySource final : public lfsc::SlotSource {
 public:
  explicit ReplaySource(const Stream& stream, const lfsc::NetworkConfig& net)
      : stream_(stream), net_(net) {}
  lfsc::Slot generate_slot(int t) override {
    lfsc::Slot out = stream_.slot(t);
    out.info.t = t;
    return out;
  }
  void generate_slot(int t, lfsc::Slot& out) override {
    out = stream_.slot(t);
    out.info.t = t;
  }
  const lfsc::NetworkConfig& network() const noexcept override {
    return net_;
  }

 private:
  const Stream& stream_;
  lfsc::NetworkConfig net_;
};

// --- the server process and its one peer -------------------------------

class Server {
 public:
  /// Spawns lfsc_serve in `dir` (created) and connects to its socket.
  Server(const std::string& bin, const std::string& dir) : dir_(dir) {
    if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create " + dir);
    }
    // Everything the child needs is prepared before fork(): between
    // fork() and exec() it only makes system calls.
    const std::string log = dir + "/server.log";
    const std::string every = std::to_string(kCheckpointEvery);
    const char* argv[] = {bin.c_str(), "--socket", "s.sock", "--checkpoint",
                          "ckpt", "--checkpoint-every", every.c_str(),
                          nullptr};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
      const int in = ::open("/dev/null", O_RDONLY);
      if (out < 0 || in < 0 || ::chdir(dir.c_str()) != 0) ::_exit(127);
      ::dup2(in, 0);
      ::dup2(out, 1);
      ::dup2(out, 2);
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    connect_socket();
  }
  ~Server() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Writes `out` while reading reply lines; `on_line` sees each reply
  /// and returns true at the last one this exchange waits for.
  ///
  /// The client busy-polls the socket instead of sleeping in poll(): the
  /// server answers every task line with its own write, and a sleeping
  /// peer would be woken for each of them. Those wakeups are load-
  /// generator cost, and where the scheduler happens to put the two
  /// processes makes them vary by tens of percent from run to run. A
  /// spinning peer is never asleep, so the server's writes wake nobody.
  /// With a single usable CPU the spin would starve the server, so the
  /// client then sleeps in poll() between attempts.
  template <typename OnLine>
  void exchange(std::string_view out, OnLine on_line) {
    std::size_t written = 0;
    bool done = false;
    auto last_progress = Clock::now();
    while (!done || written < out.size()) {
      bool progress = false;
      if (written < out.size()) {
        const ssize_t n =
            ::send(fd_, out.data() + written, out.size() - written,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0 && errno != EAGAIN && errno != EINTR) {
          throw std::runtime_error("write to lfsc_serve failed");
        }
        if (n > 0) {
          written += static_cast<std::size_t>(n);
          progress = true;
        }
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("lfsc_serve closed the socket");
      if (n < 0 && errno != EAGAIN && errno != EINTR) {
        throw std::runtime_error("read from lfsc_serve failed");
      }
      if (n > 0) {
        in_.append(chunk, static_cast<std::size_t>(n));
        progress = true;
      }
      while (!done) {
        const std::size_t nl = in_.find('\n', pos_);
        if (nl == std::string::npos) break;
        const std::string_view line(in_.data() + pos_, nl - pos_);
        pos_ = nl + 1;
        // Unsolicited telemetry pushes are not replies.
        if (line.rfind("push ", 0) == 0) continue;
        done = on_line(line);
      }
      if (pos_ > (1u << 16)) {
        in_.erase(0, pos_);
        pos_ = 0;
      }
      if (progress) {
        last_progress = Clock::now();
        continue;
      }
      if (Clock::now() - last_progress > kReplyTimeout) {
        throw std::runtime_error("lfsc_serve stopped replying");
      }
      if (!spin_) {
        pollfd pfd{fd_, static_cast<short>(POLLIN), 0};
        if (written < out.size()) pfd.events |= POLLOUT;
        (void)::poll(&pfd, 1, 100);
      }
    }
  }

  /// One command, one reply line.
  std::string request(const std::string& command) {
    std::string reply;
    exchange(command + "\n", [&](std::string_view line) {
      reply = line;
      return true;
    });
    return reply;
  }

  /// Peak resident set of the server (VmHWM) in MB.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kib = 0.0;
        status >> kib;
        return kib / 1024.0;
      }
    }
    throw std::runtime_error("no VmHWM for lfsc_serve");
  }

  /// Asks the server to exit and waits for it.
  void shutdown() {
    const std::string reply = request("shutdown");
    if (reply.rfind("ok", 0) != 0) {
      throw std::runtime_error("shutdown refused: " + reply);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw std::runtime_error("lfsc_serve exited abnormally");
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("lfsc_serve did not exit after shutdown");
  }

 private:
  void connect_socket() {
    // The socket path is relative to the server's directory, which keeps
    // it inside sockaddr_un's 108 bytes wherever the checkout lives.
    const int here = ::open(".", O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (here < 0) throw std::runtime_error("cannot open the working dir");
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strcpy(addr.sun_path, "s.sock");
      int rc = -1;
      if (fd >= 0 && ::chdir(dir_.c_str()) == 0) {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
        if (::fchdir(here) != 0) rc = -1;
      }
      if (rc == 0) {
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        fd_ = fd;
        ::close(here);
        return;
      }
      if (fd >= 0) ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        ::close(here);
        throw std::runtime_error("lfsc_serve exited at start; see " + dir_ +
                                 "/server.log");
      }
      if (Clock::now() > deadline) {
        ::close(here);
        throw std::runtime_error("cannot connect to lfsc_serve");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::string dir_;
  pid_t pid_ = -1;
  int fd_ = -1;
  bool spin_ = usable_cpus() >= 2;
  std::string in_;
  std::size_t pos_ = 0;
};

/// Reads `key=<number>` from a stats line.
double stats_field(const std::string& stats, const std::string& key) {
  const std::size_t at = stats.find(" " + key + "=");
  if (at == std::string::npos) {
    throw std::runtime_error("stats line lacks " + key + ": " + stats);
  }
  return std::strtod(stats.c_str() + at + key.size() + 2, nullptr);
}

/// Reads a numeric field of the named metric from a one-line
/// lfsc.telemetry/1 document; `streams` reads its per-stream array.
double telemetry_field(const std::string& doc, const std::string& name,
                       const std::string& field) {
  const std::size_t at = doc.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const std::size_t f = doc.find("\"" + field + "\": ", at);
  const std::size_t end = doc.find('}', at);
  if (f == std::string::npos || f > end) return 0.0;
  return std::strtod(doc.c_str() + f + field.size() + 4, nullptr);
}

std::vector<double> telemetry_streams(const std::string& doc,
                                      const std::string& name) {
  std::vector<double> out;
  const std::size_t at = doc.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return out;
  const std::size_t f = doc.find("\"streams\": [", at);
  if (f == std::string::npos || f > doc.find('}', at)) return out;
  const char* p = doc.c_str() + f + 12;
  while (*p != ']' && *p != '\0') {
    char* next = nullptr;
    out.push_back(std::strtod(p, &next));
    if (next == p) break;
    p = next;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

Quality stats_totals(const std::string& stats) {
  return {stats_field(stats, "reward"), stats_field(stats, "qos_violation"),
          stats_field(stats, "resource_violation")};
}

struct Shape {
  int stream_slots = 100;    ///< distinct rendered slots K
  int reward_window = 1000;  ///< slots the reward metrics average over
  std::size_t min_timed = 1000;
  int warmup = 20;
  int tail_cap = 99;
  std::size_t p50_block = 50;  ///< slots per block of slot_ms_p50
};

/// One server's closed-loop session.
struct Session {
  std::vector<double> slot_ms;  ///< timed slots
  double wall_s = 0.0;          ///< summed wall time of the timed slots
  int slots = 0;
  double peak_rss_mb = 0.0;  ///< server VmHWM when the reward window closed
  Quality window;        ///< server totals after the reward window
  Quality end;           ///< server totals at the end
  double checkpoints = 0.0;
  std::string telemetry;  ///< final lfsc.telemetry/1 document

  double slots_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(slot_ms.size()) / wall_s : 0.0;
  }
};

/// Layers of the traced session.
struct Layers {
  explicit Layers(Tracer& t)
      : slot(t.layer("serve.slot")),
        ingest(t.layer("serve.ingest")),
        tick(t.layer("serve.tick")) {}
  int slot, ingest, tick;
};

/// Appends `reps` spawn-to-first-reply times of fresh probe servers,
/// each in its own directory under `work_dir`.
void time_spawns(const Options& opt, int reps, std::vector<double>& samples) {
  for (int i = 0; i < reps; ++i) {
    const auto spawn = Clock::now();
    Server server(opt.serve_bin, opt.work_dir + "/probe" +
                                     std::to_string(samples.size()));
    (void)server.request("stats");
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - spawn).count());
    server.shutdown();
  }
}

/// One closed-loop session against a fresh server in `dir`. With
/// `setup_samples`, probe servers are timed between slots (see
/// kSetupEvery); they are separate processes, so the session server's
/// memory is untouched.
Session run_session(const Options& opt, const Shape& shape,
                    const Stream& stream, const std::string& dir,
                    double budget_s, Tracer* tracer,
                    std::vector<double>* setup_samples, Report& report) {
  Session s;
  if (setup_samples != nullptr) {
    time_spawns(opt, kSetupRound, *setup_samples);
  }
  Server server(opt.serve_bin, dir);
  const std::string first = server.request("stats");
  if (first.rfind("ok", 0) != 0) throw std::runtime_error("stats: " + first);

  std::optional<Layers> layers;
  if (tracer != nullptr) layers.emplace(*tracer);
  std::string bytes;
  const auto begin = Clock::now();
  for (int t = 1;; ++t) {
    stream.read(t, bytes);
    const RenderedSlot& r = stream.rendered(t);
    // Replies come in request order: one per task line, then the tick's.
    std::size_t replies = 0, acks = 0, errors = 0;
    bool ticked = false;
    const auto on_line = [&](std::string_view line) {
      if (++replies <= r.lines) {
        line.rfind("ok queued=", 0) == 0 ? ++acks : ++errors;
        return tracer != nullptr && replies == r.lines;
      }
      ticked = line.rfind("ok slot=", 0) == 0;
      if (!ticked) ++errors;
      return true;
    };
    ++report.attempted;
    const auto t0 = Clock::now();
    Clock::time_point ingested = t0;
    if (tracer == nullptr) {
      bytes += "tick\n";
      server.exchange(bytes, on_line);
    } else {
      server.exchange(bytes, on_line);
      ingested = Clock::now();
      server.exchange("tick\n", on_line);
    }
    const auto t1 = Clock::now();
    ++s.slots;
    if (tracer != nullptr) {
      const auto root =
          static_cast<std::int64_t>(tracer->record(layers->slot, t, t0, t1, -1));
      tracer->record(layers->ingest, t, t0, ingested, root);
      tracer->record(layers->tick, t, ingested, t1, root);
      tracer->count("serve.lines", static_cast<double>(r.lines));
      tracer->count("serve.bytes", static_cast<double>(r.bytes));
      tracer->count("sim.edges", static_cast<double>(r.edges));
    }
    if (errors > 0 || acks != r.lines || !ticked) {
      ++report.failed;
      report.fail("slot " + std::to_string(t) + ": " +
                  std::to_string(errors) + " err replies, " +
                  std::to_string(acks) + "/" + std::to_string(r.lines) +
                  " tasks queued");
    }
    if (t > shape.warmup) {
      s.wall_s += std::chrono::duration<double>(t1 - t0).count();
      s.slot_ms.push_back(ms_between(t0, t1));
    }
    if (t == shape.reward_window) {
      s.window = stats_totals(server.request("stats"));
      s.peak_rss_mb = server.peak_rss_mb();
    }
    if (setup_samples != nullptr && t % kSetupEvery == 0) {
      time_spawns(opt, kSetupRound, *setup_samples);
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (t >= shape.reward_window && s.slot_ms.size() >= shape.min_timed &&
        elapsed >= budget_s) {
      break;
    }
  }
  const std::string telemetry = server.request("telemetry");
  if (telemetry.rfind("ok ", 0) != 0) {
    throw std::runtime_error("telemetry: " + telemetry.substr(0, 200));
  }
  s.telemetry = telemetry.substr(3);
  const std::string stats = server.request("stats");
  s.end = stats_totals(stats);
  s.checkpoints = stats_field(stats, "checkpoints");
  if (stats_field(stats, "slots") != s.slots ||
      stats_field(stats, "protocol_errors") != 0 ||
      stats_field(stats, "busy_rejects") != 0) {
    report.fail("server stats disagree with the session: " + stats);
  }
  server.shutdown();
  return s;
}

struct ReferenceRun {
  Quality window;     ///< in-process learner after the reward window
  Quality end;        ///< in-process learner after every slot
  Quality selection;  ///< reference selection over the reward window
};

/// In-process reference: the service's learner (PaperSetup at the
/// service seed, default horizon) stepped over the same slots.
ReferenceRun reference_run(const Stream& stream,
                           const lfsc::NetworkConfig& net, int window,
                           int slots) {
  lfsc::PaperSetup service;
  service.set_seed(kServeLearnerSeed);
  ReplaySource source(stream, net);
  lfsc::LfscPolicy policy(service.net, service.lfsc);
  std::array<lfsc::Policy*, 1> roster{&policy};
  lfsc::StepConfig config;
  config.validate = true;
  lfsc::SlotStepper stepper(source, roster, config);
  const auto& rec = stepper.series()[0];
  ReferenceRun out;
  std::vector<std::size_t> scratch;
  for (int t = 1; t <= slots; ++t) {
    stepper.step();
    if (t <= window) {
      out.selection += reference_quality(stream.slot(t), net, scratch);
    }
    if (t == window) {
      out.window = {rec.total_reward(), rec.total_qos_violation(),
                    rec.total_resource_violation()};
    }
  }
  out.end = {rec.total_reward(), rec.total_qos_violation(),
             rec.total_resource_violation()};
  return out;
}

/// Gates the session against the in-process reference and returns the
/// reference selection's quality over the reward window.
Quality check_against_reference(const Options& opt, const Stream& stream,
                                const lfsc::NetworkConfig& net,
                                const Shape& shape, const Session& s,
                                Report& report) {
  const ReferenceRun ref =
      reference_run(stream, net, shape.reward_window, s.slots);
  check_identical(opt, report, "served vs in-process reward (window)",
                  ref.window.reward, s.window.reward);
  check_identical(opt, report, "served vs in-process reward (end)",
                  ref.end.reward, s.end.reward);
  if (ref.window.qos != s.window.qos || ref.window.res != s.window.res) {
    report.fail("served vs in-process violations differ");
  }
  return ref.selection;
}

}  // namespace

void run_served(const Options& opt, Report& report) {
  Shape shape;
  if (opt.tiny) {
    shape = {.stream_slots = 10, .reward_window = 20, .min_timed = 0,
             .warmup = 2, .tail_cap = 99, .p50_block = 50};
  }
  lfsc::PaperSetup world;
  world.set_seed(opt.seed);
  const Stream stream(world, shape.stream_slots,
                      opt.work_dir + "/stream.txt");
  std::printf("workload served: %d SCNs, seed %llu, %d rendered slots, "
              "threads 1 (serial lfsc_serve), peers 1\n",
              world.net.num_scns, static_cast<unsigned long long>(opt.seed),
              shape.stream_slots);

  if (!opt.trace) {
    std::vector<double> setups;
    const Session s = run_session(opt, shape, stream, opt.work_dir + "/srv",
                                  opt.seconds, nullptr, &setups, report);
    const Quality selection =
        check_against_reference(opt, stream, world.net, shape, s, report);
    const int pct = tail_percentile(s.slot_ms.size(), shape.tail_cap);
    if (pct == 0) throw std::runtime_error("too few timed slots for a tail");
    report.set("slots_per_s", s.slots_per_s());
    report.set("slot_ms_p50", blocked_median(s.slot_ms, shape.p50_block));
    report.set("slot_ms_tail", percentile(s.slot_ms, pct));
    report.set("setup_s", blocked_median(setups, kSetupRound));
    report.set("peak_rss_mb", s.peak_rss_mb);
    report.set("reward_ratio", s.window.reward / selection.reward);
    std::printf("timed slots %zu, tail percentile p%d, reward window %d "
                "slots\n",
                s.slot_ms.size(), pct, shape.reward_window);
    return;
  }

  const double half = opt.seconds / 2.0;
  const Session untraced =
      run_session(opt, shape, stream, opt.work_dir + "/srv-untraced", half,
                  nullptr, nullptr, report);
  Tracer tracer;
  const Session traced = run_session(opt, shape, stream,
                                     opt.work_dir + "/srv-traced", half,
                                     &tracer, nullptr, report);
  check_identical(opt, report, "traced vs untraced served reward",
                  untraced.window.reward, traced.window.reward);
  const Quality selection =
      check_against_reference(opt, stream, world.net, shape, traced, report);

  const auto summaries = tracer.summarize();
  const auto slot = Tracer::find(summaries, "serve.slot");
  const auto ingest = Tracer::find(summaries, "serve.ingest");
  const auto tick = Tracer::find(summaries, "serve.tick");
  const auto slots = static_cast<double>(traced.slots);
  const int pct = std::max(tail_percentile(traced.slots, shape.tail_cap), 50);
  const std::string& doc = traced.telemetry;
  const double select_ms = 1e3 * telemetry_field(doc, "lfsc.select", "total_s");
  const double observe_ms =
      1e3 * telemetry_field(doc, "lfsc.observe", "total_s");
  const double lines = tracer.count_total("serve.lines");

  report.set("sim.tasks_per_slot", lines / slots);
  report.set("sim.edges_per_slot", tracer.count_total("sim.edges") / slots);
  report.set("lfsc.select.share", select_ms / slot.total_ms);
  report.set("lfsc.observe.share", observe_ms / slot.total_ms);
  report.set("lfsc.alg2.calculating.ms_per_slot",
             1e3 * telemetry_field(doc, "lfsc.alg2.calculating", "total_s") /
                 slots);
  report.set("lfsc.alg4.greedy_select.ms_per_slot",
             1e3 * telemetry_field(doc, "lfsc.alg4.greedy_select",
                                   "total_s") / slots);
  report.set("lfsc.alg3.updating.ms_per_slot",
             1e3 * telemetry_field(doc, "lfsc.alg3.updating", "total_s") /
                 slots);
  report.set("lfsc.improve.moves",
             telemetry_field(doc, "lfsc.improve.moves", "value"));
  report.set("lfsc.shard.busy.imbalance",
             busy_imbalance(telemetry_streams(doc, "lfsc.shard.busy")));
  report.set("lfsc.fill_ratio",
             telemetry_field(doc, "lfsc.scn.accepted", "value") /
                 (slots * world.net.capacity_c * world.net.num_scns));
  report.set("serve.ingest.ms_p50", percentile(ingest.durations_ms, 50));
  report.set("serve.ingest.ms_tail", percentile(ingest.durations_ms, pct));
  report.set("serve.ingest.us_per_line", 1e3 * ingest.total_ms / lines);
  report.set("serve.lines_per_slot", lines / slots);
  report.set("serve.bytes_per_slot",
             tracer.count_total("serve.bytes") / slots);
  report.set("serve.tick.ms_p50", percentile(tick.durations_ms, 50));
  report.set("serve.tick.ms_tail", percentile(tick.durations_ms, pct));
  const double policy_ms = (select_ms + observe_ms) / slots;
  report.set("serve.policy.ms_per_slot", policy_ms);
  report.set("serve.overhead.ms_per_slot", tick.total_ms / slots - policy_ms);
  std::vector<double> checkpoint_ticks;
  for (std::size_t i = 0; i < tick.durations_ms.size(); ++i) {
    if ((i + 1) % kCheckpointEvery == 0) {
      checkpoint_ticks.push_back(tick.durations_ms[i]);
    }
  }
  report.set("checkpoint.writes", traced.checkpoints);
  report.set("checkpoint.tick_ms_p50", percentile(checkpoint_ticks, 50));
  report.set("trace.overhead", untraced.slots_per_s() / traced.slots_per_s());
  report.set("trace.residual.share", slot.self_ms / slot.total_ms);
  report.set("trace.slots", slots);
  report_quality(traced.window, selection, shape.reward_window, report);
  report.set("run.threads", 1);
  report.set("run.peers", 1);
  print_layer_table(tracer, "serve.slot");
  if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench
