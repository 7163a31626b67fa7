// Load process of the wall-clock benchmark (see README.md in this directory).
//
// Hosts one ordering::Frontend in its own TcpCluster and drives the
// four-node cluster the benchmark script launched:
//
//   setup    one probe envelope (index 0); its delivery ends set-up
//   warm-up  kWarmupNs of load as in the window, excluded from every metric
//   window   --seconds of load; node CPU and peak RSS are read from /proc
//            at both edges
//   fault    kFaults times: the script SIGKILLs follower kFaultNode and
//            restarts it; this process re-registers as its receiver (a
//            restarted node has forgotten its receivers) and times its
//            catch-up
//   drain    no new load; waits until every envelope is delivered or past
//            kDeadlineNs and every node has pushed the head block
//
// Load is closed-loop (--window N envelopes in flight, refilled from the
// block callback) or open-loop (--rate envelopes/s, paced by one thread that
// posts each submit to the frontend's event loop at its due time). Envelope
// contents are derived from --seed; every envelope carries its index.
//
// Phase lines go to stdout ("probe", "window_start", "window_end",
// "fault_ready <node-id>", "caught_up"); the script answers each
// "fault_ready" line on stdin with "restarted <node-id> <monotonic-ns>". The
// last stdout line is a JSON summary. Raw records go to --out: envelopes.bin (per index: due, submit
// and delivery time in CLOCK_MONOTONIC ns, delivery count) and blocks.bin
// (every delivered block as u32 length + ledger encoding), which the script
// checks independently of this program.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/cli.hpp"
#include "envelope.hpp"
#include "ordering/deployment.hpp"
#include "ordering/frontend.hpp"
#include "runtime/tcp_runtime.hpp"
#include "smr/wire.hpp"

namespace {

using namespace bft;
using perfbench::EnvelopeMaker;
using perfbench::kHeaderBytes;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kWarmupNs = 2'000'000'000;
// An envelope not delivered this long after its due time has failed.
constexpr std::int64_t kDeadlineNs = 30'000'000'000;
constexpr int kFaults = 7;      // kill/restart cycles per run
constexpr int kFaultNode = 3;   // a follower: node 0 leads regency 0

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- node CPU and memory from /proc -----------------------------------------

double proc_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  // Fields after the command: state(3) ... utime(14) stime(15).
  for (int i = 3; i < 14; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_hwm_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return -1;
}

// --- the frontend, observed from outside ------------------------------------

/// Counts block pushes per node, so the benchmark sees which node has pushed
/// which block; everything else is ordering::Frontend's own behaviour.
class ObservedFrontend : public ordering::Frontend {
 public:
  using Frontend::Frontend;

  void consume(runtime::Verified&& verified) override {
    note_push(verified.from, verified.payload.view());
    Frontend::consume(std::move(verified));
  }

  void reregister(runtime::ProcessId node) {
    env().send(node, Payload(smr::encode_register_receiver()));
  }

  std::uint64_t pushes = 0;
  std::map<runtime::ProcessId, std::uint64_t> head_pushed;  // node -> number
  std::function<void(runtime::ProcessId, std::uint64_t)> on_push;

 private:
  void note_push(runtime::ProcessId from, ByteView payload) {
    try {
      // push = kind u8 | u32 len | SignedBlock{str channel | bytes block}
      //        where block = bytes header{u64 number | ...} | ...
      Reader r(payload);
      if (static_cast<smr::MsgKind>(r.u8()) != smr::MsgKind::push) return;
      r.u32();
      r.str();
      r.u32();
      r.u32();
      const std::uint64_t number = r.u64();
      ++pushes;
      auto& head = head_pushed[from];
      head = std::max(head, number);
      if (on_push) on_push(from, number);
    } catch (const DecodeError&) {
      // Not a push we can read; the frontend reports malformed input.
    }
  }
};

struct Record {
  std::int64_t due = 0;
  std::int64_t submitted = 0;
  std::int64_t delivered = 0;
  std::uint32_t deliveries = 0;
  bool expired = false;
};

// --- the load itself: all state below lives on the frontend's event loop ----

class Load {
 public:
  Load(ObservedFrontend& frontend, const EnvelopeMaker& maker,
       std::size_t window, std::FILE* blocks_out)
      : frontend_(frontend),
        maker_(maker),
        window_(window),
        blocks_out_(blocks_out) {}

  void submit(std::uint64_t index, std::int64_t due) {
    if (records_.size() <= index) records_.resize(index + 1);
    Record& rec = records_[index];
    rec.due = due;
    Bytes envelope = maker_.make(index);
    const std::int64_t t0 = mono_ns();
    frontend_.submit(std::move(envelope));
    rec.submitted = t0;
    submit_ns_.push_back(mono_ns() - t0);
    pending_.push_back(index);
    ++inflight_;
    next_index_ = std::max(next_index_, index + 1);
    attempted_.store(next_index_);
  }

  /// Closed loop: keep `window_` envelopes in flight while generating.
  void refill() {
    while (generating_ && window_ > 0 && inflight_ < window_) {
      submit(next_index_, mono_ns());
    }
  }

  void on_block(const ledger::Block& block) {
    const std::int64_t now = mono_ns();
    const Bytes encoded = block.encode();
    const std::uint32_t len = static_cast<std::uint32_t>(encoded.size());
    std::fwrite(&len, sizeof(len), 1, blocks_out_);
    std::fwrite(encoded.data(), 1, encoded.size(), blocks_out_);
    for (const Bytes& e : block.envelopes) {
      const std::int64_t index = maker_.index_of(e);
      if (index < 0 || static_cast<std::size_t>(index) >= records_.size()) {
        continue;  // not ours: the script's checker reports it
      }
      Record& rec = records_[static_cast<std::size_t>(index)];
      if (rec.deliveries++ == 0) {
        rec.delivered = now;
        if (!rec.expired) --inflight_;
        delivered_.fetch_add(1);
      }
    }
    head_ = block.header.number;
    ++blocks_;
    expire(now);
    refill();
  }

  /// Releases envelopes past their deadline (counted as failed later).
  void expire(std::int64_t now) {
    while (!pending_.empty()) {
      Record& rec = records_[pending_.front()];
      if (rec.deliveries > 0) {
        pending_.pop_front();
      } else if (now - rec.due > kDeadlineNs) {
        rec.expired = true;
        --inflight_;
        pending_.pop_front();
      } else {
        break;
      }
    }
    settled_.store(pending_.empty());
  }

  void tick() {
    expire(mono_ns());
    refill();
    if (rejoin_node_ >= 0 && !rejoined_) {
      const auto it = frontend_.head_pushed.find(
          static_cast<runtime::ProcessId>(rejoin_node_));
      if (it == frontend_.head_pushed.end() || it->second <= rejoin_baseline_) {
        frontend_.reregister(static_cast<runtime::ProcessId>(rejoin_node_));
      }
    }
    std::uint64_t lowest = head_;
    for (runtime::ProcessId node : nodes_) {
      const auto it = frontend_.head_pushed.find(node);
      lowest = std::min(lowest, it == frontend_.head_pushed.end() ? 0
                                                                  : it->second);
    }
    all_at_head_.store(lowest >= head_);
  }

  void on_push(runtime::ProcessId from, std::uint64_t number) {
    if (rejoin_node_ >= 0 && from == static_cast<runtime::ProcessId>(rejoin_node_)
        && !rejoined_ && number >= head_ && head_ > 0) {
      rejoined_ = true;
      caught_up_ns_.store(mono_ns());
    }
  }

  void begin_rejoin(int node) {
    rejoin_node_ = node;
    rejoined_ = false;
    caught_up_ns_.store(0);
    // Pushes the killed node sent before it died do not count.
    const auto it =
        frontend_.head_pushed.find(static_cast<runtime::ProcessId>(node));
    rejoin_baseline_ = it == frontend_.head_pushed.end() ? 0 : it->second;
    frontend_.head_pushed.erase(static_cast<runtime::ProcessId>(node));
  }

  void set_generating(bool on) {
    generating_ = on;
    refill();
  }

  std::vector<runtime::ProcessId> nodes_;
  std::vector<Record> records_;
  std::vector<std::int64_t> submit_ns_;
  std::uint64_t blocks_ = 0;

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<bool> settled_{true};
  std::atomic<bool> all_at_head_{false};
  std::atomic<std::int64_t> caught_up_ns_{0};

 private:
  ObservedFrontend& frontend_;
  const EnvelopeMaker& maker_;
  std::size_t window_;
  std::FILE* blocks_out_;

  bool generating_ = false;
  std::uint64_t next_index_ = 0;
  std::size_t inflight_ = 0;
  std::deque<std::uint64_t> pending_;
  std::uint64_t head_ = 0;
  int rejoin_node_ = -1;
  std::uint64_t rejoin_baseline_ = 0;
  bool rejoined_ = false;
};

/// Runs `fn` on the frontend's event loop and waits for it.
template <typename Fn>
void on_loop(runtime::TcpCluster& cluster, runtime::ProcessId id, Fn fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  cluster.post(id, [&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

template <typename Pred>
bool wait_for(Pred pred, double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

std::vector<int> parse_ints(const std::string& csv) {
  std::vector<int> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

template <typename T>
std::string json_list(const std::vector<T>& values) {
  std::ostringstream out;
  out.precision(12);
  out << "[";
  for (std::size_t k = 0; k < values.size(); ++k) out << (k ? "," : "") << values[k];
  out << "]";
  return out.str();
}

void line(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string config = flags.get("config", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto bytes = static_cast<std::size_t>(flags.get_int("bytes", 40));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 0));
  const double rate = static_cast<double>(flags.get_int("rate", 0));
  const double seconds = static_cast<double>(flags.get_int("seconds", 10));
  const std::string out_dir = flags.get("out", "");
  const std::vector<int> pids = parse_ints(flags.get("node-pids", ""));
  if (!flags.unused().empty() || config.empty() || out_dir.empty() ||
      bytes < kHeaderBytes + 8 || (window == 0) == (rate <= 0)) {
    std::fprintf(stderr,
                 "usage: loadgen --config FILE --out DIR --seed N --bytes N\n"
                 "               (--window N | --rate N) [--seconds N]\n"
                 "               [--node-pids a,b,..]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  const runtime::Topology topology = runtime::Topology::load(config);
  ordering::ServiceOptions service;
  service.nodes = topology.ids_with_role("node");
  const std::vector<runtime::ProcessId> frontends =
      topology.ids_with_role("frontend");
  if (frontends.size() != 1) {
    std::fprintf(stderr, "loadgen: %s must name exactly one frontend\n",
                 config.c_str());
    return 2;
  }
  const runtime::ProcessId id = frontends.front();
  ordering::FrontendOptions frontend_options =
      ordering::make_frontend_options(service);
  frontend_options.track_latency = false;  // latency is computed from indices

  std::FILE* blocks_out = std::fopen((out_dir + "/blocks.bin").c_str(), "wb");
  if (blocks_out == nullptr) {
    std::fprintf(stderr, "loadgen: cannot write %s/blocks.bin\n", out_dir.c_str());
    return 2;
  }
  std::vector<char> blocks_buffer(1 << 20);
  std::setvbuf(blocks_out, blocks_buffer.data(), _IOFBF, blocks_buffer.size());

  const EnvelopeMaker maker(seed, bytes);
  Load* load = nullptr;
  ObservedFrontend frontend(
      smr::ClusterConfig::classic(service.nodes), frontend_options,
      [&load](const ledger::Block& block) { load->on_block(block); });
  Load state(frontend, maker, window, blocks_out);
  load = &state;
  state.nodes_ = service.nodes;
  frontend.on_push = [&state](runtime::ProcessId from, std::uint64_t number) {
    state.on_push(from, number);
  };

  runtime::TcpCluster cluster(topology, {id});
  cluster.add_process(id, &frontend);
  cluster.start();

  std::atomic<bool> ticking{true};
  std::thread ticker([&] {
    while (ticking.load()) {
      cluster.post(id, [&state] { state.tick(); });
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  int exit_code = 0;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "loadgen: %s\n", why.c_str());
    exit_code = 1;
  };

  // Set-up ends when the probe envelope comes back in a block.
  on_loop(cluster, id, [&] { state.submit(0, mono_ns()); });
  if (!wait_for([&] { return state.delivered_.load() >= 1; }, 60)) {
    fail("probe envelope never delivered");
  }
  const std::int64_t probe_ns = mono_ns();
  line("probe " + std::to_string(probe_ns));

  // Open loop: one pacing thread posts each submit at its due time.
  std::atomic<bool> pacing{false};
  std::vector<std::int64_t> late_ns;
  std::mutex late_mu;
  std::thread pacer;
  const std::int64_t gen_start = mono_ns();
  if (exit_code == 0 && rate > 0) {
    pacing.store(true);
    pacer = std::thread([&] {
      const double period = 1e9 / rate;
      for (std::uint64_t i = 1; pacing.load(); ++i) {
        const auto due = gen_start + static_cast<std::int64_t>(
                                         static_cast<double>(i - 1) * period);
        sleep_until_ns(due);
        if (!pacing.load()) break;
        cluster.post(id, [&state, &late_ns, &late_mu, i, due] {
          state.submit(i, due);
          std::lock_guard<std::mutex> lock(late_mu);
          late_ns.push_back(mono_ns() - due);
        });
      }
    });
  } else if (exit_code == 0) {
    on_loop(cluster, id, [&] { state.set_generating(true); });
  }

  struct Edge {
    std::int64_t at = 0;
    double node_cpu_s = 0;
    double leader_cpu_s = 0;  // node 0, the leader of regency 0
    std::uint64_t pushes = 0;
    std::uint64_t blocks = 0;
  };
  auto edge = [&] {
    Edge e;
    on_loop(cluster, id, [&] {
      e.pushes = frontend.pushes;
      e.blocks = state.blocks_;
    });
    e.at = mono_ns();
    for (int pid : pids) e.node_cpu_s += proc_cpu_s(pid);
    if (!pids.empty()) e.leader_cpu_s = proc_cpu_s(pids[0]);
    return e;
  };
  Edge start, end;
  std::vector<double> cpu_slices;
  double hwm_mb = 0;
  std::vector<std::int64_t> restart_ns, caught_up;
  if (exit_code == 0) {
    sleep_until_ns(gen_start + kWarmupNs);
    start = edge();
    line("window_start " + std::to_string(start.at));
    // Node CPU per 1 s slice of the window.
    double cpu_before = start.node_cpu_s;
    const int slices = std::max(1, static_cast<int>(seconds));
    for (int k = 1; k <= slices; ++k) {
      sleep_until_ns(start.at + static_cast<std::int64_t>(seconds * 1e9) * k / slices);
      double cpu = 0;
      for (int pid : pids) cpu += proc_cpu_s(pid);
      cpu_slices.push_back(cpu - cpu_before);
      cpu_before = cpu;
    }
    end = edge();
    for (int pid : pids) hwm_mb = std::max(hwm_mb, proc_hwm_mb(pid));
    line("window_end " + std::to_string(end.at));
  }

  for (int k = 0; exit_code == 0 && k < kFaults; ++k) {
    line("fault_ready " + std::to_string(kFaultNode));
    char buf[128] = {0};
    int node = -1;
    long long t = 0;
    if (std::fgets(buf, sizeof(buf), stdin) == nullptr ||
        std::sscanf(buf, "restarted %d %lld", &node, &t) != 2 ||
        node != kFaultNode) {
      fail("expected 'restarted <node> <ns>' on stdin");
      break;
    }
    on_loop(cluster, id, [&] { state.begin_rejoin(node); });
    if (!wait_for([&] { return state.caught_up_ns_.load() != 0; }, 60)) {
      fail("restarted node never pushed the head block");
      break;
    }
    restart_ns.push_back(t);
    caught_up.push_back(state.caught_up_ns_.load());
    line("caught_up " + std::to_string(caught_up.back()));
  }

  // Drain: stop generating, then wait for every envelope to settle and for
  // every node to have pushed the head block.
  pacing.store(false);
  if (pacer.joinable()) pacer.join();
  on_loop(cluster, id, [&] { state.set_generating(false); });
  const double drain_s = static_cast<double>(kDeadlineNs) / 1e9 + 5;
  if (!wait_for([&] { return state.settled_.load(); }, drain_s)) {
    fail("envelopes neither delivered nor expired");
  }
  if (!wait_for([&] { return state.all_at_head_.load(); }, 10)) {
    fail("not every node pushed the head block");
  }
  ticking.store(false);
  ticker.join();
  cluster.stop();
  std::fflush(blocks_out);
  std::fclose(blocks_out);

  // Raw per-envelope records for the script's checks and metrics.
  std::FILE* env_out = std::fopen((out_dir + "/envelopes.bin").c_str(), "wb");
  if (env_out == nullptr) {
    fail("cannot write envelopes.bin");
  } else {
    for (const Record& r : state.records_) {
      std::fwrite(&r.due, sizeof(r.due), 1, env_out);
      std::fwrite(&r.submitted, sizeof(r.submitted), 1, env_out);
      std::fwrite(&r.delivered, sizeof(r.delivered), 1, env_out);
      std::fwrite(&r.deliveries, sizeof(r.deliveries), 1, env_out);
    }
    std::fclose(env_out);
  }

  auto pct = [](std::vector<std::int64_t> v, double q) -> double {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    return static_cast<double>(v[static_cast<std::size_t>(q * (v.size() - 1))]);
  };
  std::ostringstream json;
  json.precision(12);
  json << "{\"probe_ns\":" << probe_ns << ",\"deadline_ns\":" << kDeadlineNs
       << ",\"fault_node\":" << kFaultNode << ",\"window_start_ns\":" << start.at
       << ",\"window_end_ns\":" << end.at
       << ",\"node_cpu_s\":" << (end.node_cpu_s - start.node_cpu_s)
       << ",\"leader_cpu_s\":" << (end.leader_cpu_s - start.leader_cpu_s)
       << ",\"node_hwm_mb\":" << hwm_mb
       << ",\"cpu_slices_s\":" << json_list(cpu_slices)
       << ",\"window_pushes\":" << (end.pushes - start.pushes)
       << ",\"window_blocks\":" << (end.blocks - start.blocks)
       << ",\"restart_ns\":" << json_list(restart_ns)
       << ",\"caught_up_ns\":" << json_list(caught_up)
       << ",\"attempted\":" << state.attempted_.load()
       << ",\"submit_us_p50\":" << pct(state.submit_ns_, 0.5) / 1e3
       << ",\"late_ms_p99\":" << pct(late_ns, 0.99) / 1e6 << "}";
  line(json.str());
  return exit_code;
}
